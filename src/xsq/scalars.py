"""Exact ground fields: the rationals and prime fields.

Every coefficient that enters a polynomial is produced by ``field.coerce``.
Over Q an integral coefficient is a plain ``int`` and any other a reduced
``Fraction``, so the common case runs on machine integers; an integral
``Fraction`` that arithmetic leaves behind (1/2 + 1/2) compares, hashes and
prints like its ``int``.  Over F_p a coefficient is an :class:`FpElement`
with residue in ``[0, p)``.  Coefficients are divided only through
``field.inv``, which is exact: ``/`` on two ints would give a float.  No
floats anywhere; ideal membership has to be decidable.
"""

from __future__ import annotations

from fractions import Fraction


class FpElement:
    """Residue mod a prime, with field arithmetic via operators."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, Fraction):
            return FpElement(other.numerator, self.p) / FpElement(other.denominator, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val + other.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val - other.val, self.p)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val * other.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.val == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.val * pow(other.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "FpElement(%d, %d)" % (self.val, self.p)

    def __str__(self):
        return str(self.val)


class RationalField:
    """The field Q; a coefficient is an ``int`` when integral and a
    ``fractions.Fraction`` otherwise."""

    char = 0
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, int):
            return int(value)  # a bool comes back as 0 or 1
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise TypeError("cannot coerce %r into Q" % (value,))

    def inv(self, c):
        if c == 1 or c == -1:  # most pivots and leading coefficients
            return int(c)
        if not c:
            raise ZeroDivisionError("division by zero in Q")
        return self.coerce(Fraction(1, c))

    def label(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test for 0 <= n < MAX_MODULUS."""
    if n >= MAX_MODULUS:
        raise ValueError("modulus %d is too large: primality is decided "
                         "only below %d" % (n, MAX_MODULUS))
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p below ``MAX_MODULUS``."""

    def __init__(self, p):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("modulus %r is not an integer" % (p,))
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.char = p

    @property
    def zero(self):
        return FpElement(0, self.p)

    @property
    def one(self):
        return FpElement(1, self.p)

    def coerce(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise TypeError("element of F_%d used in F_%d" % (value.p, self.p))
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, Fraction):
            return (FpElement(value.numerator, self.p)
                    * self.inv(FpElement(value.denominator, self.p)))
        raise TypeError("cannot coerce %r into F_%d" % (value, self.p))

    def inv(self, c):
        c = self.coerce(c)
        if not c:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(pow(c.val, -1, self.p), self.p)

    def label(self):
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_from_label(label):
    """Inverse of ``field.label()``; accepts "Q" or {"Fp": p}."""
    if label == "Q":
        return QQ
    if isinstance(label, dict) and set(label) == {"Fp"}:
        return GF(label["Fp"])
    raise ValueError("unknown field label %r" % (label,))
