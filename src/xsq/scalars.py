"""Exact ground fields: the rationals and prime fields.

Every coefficient that enters a polynomial is produced by ``field.coerce``.
Over Q an integral coefficient is a plain ``int`` and any other a reduced
``Fraction``, so the common case runs on machine integers; an integral
``Fraction`` that arithmetic leaves behind (1/2 + 1/2) compares, hashes and
prints like its ``int``.  Over F_p a coefficient is a plain ``int`` in
``[0, p)``.  Arithmetic on coefficients is the arithmetic of Python numbers,
so over F_p a sum or product leaves that range: the code that computes one
reads ``char = field.char`` once and reduces ``% char`` when ``char`` is
nonzero, or sums exact integers and passes the result through
:func:`reduced`.  Over Q, ``char`` is 0 and nothing is reduced.
Coefficients are divided only through ``field.inv``, which is exact: ``/``
on two ints would give a float.  No floats anywhere; ideal membership has
to be decidable.  ``fractions`` is imported where a ``Fraction`` can first
appear (a non-``int`` in ``coerce``, ``QQ.inv`` of a non-unit), so input
with integral coefficients never loads it."""


class RationalField:
    """The field Q; a coefficient is an ``int`` when integral and a
    ``fractions.Fraction`` otherwise."""

    char = 0
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, int):
            return int(value)  # a bool comes back as 0 or 1
        from fractions import Fraction
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise TypeError("cannot coerce %r into Q" % (value,))

    def inv(self, c):
        if c == 1 or c == -1:  # most pivots and leading coefficients
            return int(c)
        if not c:
            raise ZeroDivisionError("division by zero in Q")
        from fractions import Fraction
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
    """The field F_p for a prime p below ``MAX_MODULUS``; a coefficient is
    an ``int`` in ``[0, p)``."""

    zero = 0
    one = 1

    def __init__(self, p):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("modulus %r is not an integer" % (p,))
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.char = p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p  # an int, also for a bool
        from fractions import Fraction
        if isinstance(value, Fraction):
            return value.numerator * self.inv(value.denominator) % self.p
        raise TypeError("cannot coerce %r into F_%d" % (value, self.p))

    def inv(self, c):
        c %= self.p
        if not c:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return pow(c, -1, self.p)

    def label(self):
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def reduced(terms, char):
    """The dict terms with every value reduced mod char and the zeros
    dropped; terms itself when char is 0, where values are exact."""
    if not char:
        return terms
    return {k: r for k, c in terms.items() if (r := c % char)}


def GF(p):
    return PrimeField(p)


def field_from_label(label):
    """Inverse of ``field.label()``; accepts "Q" or {"Fp": p}."""
    if label == "Q":
        return QQ
    if isinstance(label, dict) and set(label) == {"Fp"}:
        return GF(label["Fp"])
    raise ValueError("unknown field label %r" % (label,))
