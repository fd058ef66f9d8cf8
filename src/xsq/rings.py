"""Sparse multivariate polynomials with exact coefficients.

A ring fixes an ordered variable list, a ground field, per-variable weights
(used for the degree filtration) and a monomial order.  Polynomials are
immutable dictionaries from exponent tuples to nonzero coefficients; two
polynomials are equal iff their canonical term lists are identical.

The text grammar understood by :func:`PolyRing.parse`:

    expr   := ['+'|'-'] term ( ('+'|'-') term )*
    term   := factor ( '*' factor )*
    factor := atom [ '^' INT ]
    atom   := INT [ '/' INT ] | NAME | '(' expr ')'

Implicit multiplication is rejected, exponents must be non-negative, and
over F_p a literal INT/INT whose reduced denominator p divides is rejected.

A ring map (:class:`RingHom`) is applied by substitution term by term into
one accumulator: a zero image drops the term, a one-term image adds to the
exponent vector and scales the coefficient, and only the powers of
several-term images are multiplied out.

Each ring also packs a monomial into one int (:class:`Packing`, kept as
``PolyRing.packing``); the order key :meth:`PolyRing.mono_key` is the int
key of the packed exponent vector, so each order is defined once.  An
exponent above MAX_EXPONENT = 2^31 - 1 cannot be packed and raises
:class:`ExponentOverflow`, a :class:`BudgetExceeded`.
"""

from __future__ import annotations

import re
import sys
from math import comb
from operator import itemgetter, mul

from .scalars import QQ


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class BudgetExceeded(RuntimeError):
    def __init__(self, steps):
        super().__init__("step budget of %d reductions exceeded" % steps)
        self.steps = steps


# Every exponent of a packed monomial has a field of 32 bits: 31 value bits
# under one guard bit.  Packing refuses an exponent above MAX_EXPONENT, the
# largest value a field holds.  Fields are read through a memoryview of
# unsigned ints ("I", 4 bytes) in the machine's byte order.
_FIELD = 32
_VALUES = (1 << (_FIELD - 1)) - 1
MAX_EXPONENT = _VALUES
_BYTEORDER = sys.byteorder


class ExponentOverflow(BudgetExceeded):
    """An exponent above MAX_EXPONENT, in a monomial being packed or in a
    product formed by the Groebner engine."""

    def __init__(self):
        super(BudgetExceeded, self).__init__(
            "exponent above the limit of %d" % MAX_EXPONENT)
        self.steps = None


class Packing:
    """Packed monomials of one ring: a monomial is one non-negative int.

    Each exponent has a 32-bit field, 31 value bits under a guard bit.  Each
    block of the order has a weighted-degree field above its variables, wide
    enough for any exponents up to MAX_EXPONENT: wdegrevlex has one block,
    ("block", k) two, the first k variables in the more significant one, and
    lex none, with x_1 in the top field.  Within a block the variables sit
    low to high.  So the packed form is linear in the exponent vector: a
    product is a sum, a quotient a difference, and a divides b iff
    ``(b - a) & guards`` is zero.  ``key(M) = M - 2 * (M & pmask)`` negates
    the exponent fields of the blocks with a degree field; it is an int that
    orders monomials as the ring's order does, and it is linear too.

    The packed form of an exponent vector is checked against MAX_EXPONENT;
    a sum of two packed monomials overflows a field exactly when it sets
    a guard bit, and the engine checks every product it forms.
    """

    __slots__ = ("units", "guards", "values", "pmask", "_nbytes", "_slots",
                 "_degrees")

    def __init__(self, weights, order):
        n = len(weights)
        if order == "lex":
            blocks, graded = [range(n - 1, -1, -1)], False
        elif order == "wdegrevlex":
            blocks, graded = [range(n)], True
        else:
            k = min(order[1], n)
            blocks, graded = [range(k, n), range(k)], True
        units, slots, slot = [0] * n, [0] * n, 0
        self._degrees = []  # per degree field: each slot's weight, shift
        for block in blocks:
            if not block:
                continue
            for i in block:
                slots[i] = slot
                units[i] = 1 << (_FIELD * slot)
                slot += 1
            if graded:
                shift = _FIELD * slot
                per_slot = [0] * slot
                for i in block:
                    units[i] += weights[i] << shift
                    per_slot[slots[i]] = weights[i]
                self._degrees.append((tuple(per_slot), shift))
                width = (sum(weights[i] for i in block)
                         * _VALUES).bit_length()
                slot += -(-width // _FIELD)
        self.units = tuple(units)
        self._slots = tuple(slots)
        self._nbytes = slot * _FIELD // 8
        self.values = sum(_VALUES << (_FIELD * s) for s in slots)
        self.guards = sum(1 << (_FIELD * s + _FIELD - 1) for s in slots)
        self.pmask = (self.values | self.guards) if graded else 0

    def pack(self, exps):
        if exps and max(exps) > MAX_EXPONENT:
            raise ExponentOverflow()
        return sum(map(mul, exps, self.units))

    def unpack(self, M):
        fields = memoryview(M.to_bytes(self._nbytes, _BYTEORDER)).cast("I")
        return tuple(map(fields.__getitem__, self._slots))

    def key(self, M):
        return M - ((M & self.pmask) << 1)

    def fieldmax(self, a, b):
        """The exponent fields of the lcm: the field-wise maximum, with no
        degree fields."""
        values, guards = self.values, self.guards
        a &= values
        b &= values
        wins = ((a | guards) - b) & guards  # guard bit set where a >= b
        wins -= wins >> (_FIELD - 1)        # ... spread to the value bits
        return b ^ ((a ^ b) & wins)

    def with_degrees(self, E):
        """The packed monomial of exponent fields E: its degree fields
        filled in."""
        if self._degrees:
            fields = memoryview(E.to_bytes(self._nbytes,
                                           _BYTEORDER)).cast("I")
            for per_slot, shift in self._degrees:
                E += sum(map(mul, fields, per_slot)) << shift
        return E

    def lcm(self, a, b):
        return self.with_degrees(self.fieldmax(a, b))


class PolyRing:
    """Polynomial ring k[x_1, ..., x_n] with a fixed monomial order.

    order is "wdegrevlex" (default), "lex", or ("block", k): the first k
    variables form an elimination block, wdegrevlex inside each block.
    """

    __slots__ = ("vars", "field", "weights", "order", "packing", "_index",
                 "_hash")

    def __init__(self, vars, field=QQ, weights=None, order="wdegrevlex"):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names in %r" % (vars,))
        for v in vars:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v):
                raise ValueError("invalid variable name %r" % (v,))
        self.vars = vars
        self.field = field
        self.weights = tuple(weights) if weights is not None else (1,) * len(vars)
        if len(self.weights) != len(vars):
            raise ValueError("weight count does not match variable count")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if not (order in ("wdegrevlex", "lex")
                or (isinstance(order, tuple) and order[0] == "block")):
            raise ValueError("unknown monomial order %r" % (order,))
        self.order = order
        self.packing = Packing(self.weights, order)
        self._index = {v: i for i, v in enumerate(vars)}
        self._hash = hash((self.vars, self.field, self.weights, self.order))

    def __eq__(self, other):
        return other is self or (isinstance(other, PolyRing)
                and self.vars == other.vars
                and self.field == other.field
                and self.weights == other.weights
                and self.order == other.order)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PolyRing(%s over %r)" % (", ".join(self.vars), self.field)

    # -- monomial order -------------------------------------------------

    def mono_key(self, exps):
        """Sort key; larger key = larger monomial in the ring's order."""
        packing = self.packing
        return packing.key(packing.pack(exps))

    def wdeg(self, exps):
        return sum(e * w for e, w in zip(exps, self.weights))

    # -- element constructors -------------------------------------------

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.coerce(c)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * len(self.vars): c})

    def var(self, name):
        if name not in self._index:
            raise KeyError("no variable %r in %r" % (name, self))
        e = [0] * len(self.vars)
        e[self._index[name]] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def gens(self):
        return tuple(self.var(v) for v in self.vars)

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != len(self.vars) or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector %r" % (exps,))
        c = self.field.coerce(coeff)
        if not c:
            return self.zero
        return Polynomial(self, {exps: c})

    def with_order(self, order):
        return PolyRing(self.vars, self.field, self.weights, order)

    def extend(self, new_vars, new_weights):
        """Ring with extra variables appended (same field and order)."""
        return PolyRing(self.vars + tuple(new_vars), self.field,
                        self.weights + tuple(new_weights), self.order)

    def drop_to(self, keep_vars):
        """Ring on a subset of the variables, original order of appearance."""
        keep = [v for v in self.vars if v in set(keep_vars)]
        w = [self.weights[self._index[v]] for v in keep]
        return PolyRing(keep, self.field, w, "wdegrevlex")

    # -- parsing ---------------------------------------------------------

    def parse(self, text):
        return _parse(text, self)


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/]))")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], pos)
            break
        if m.group(1) is not None:
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


MAX_NESTING = 100
# A power base^n is refused before it is expanded when n times the weighted
# degree of the base (at least one, so constant bases are bounded too)
# exceeds this bound.
MAX_POWER_DEGREE = 64
# A power of a base with t > 1 terms is refused before it is expanded when
# the multinomial bound comb(t + n - 1, n) on its terms exceeds this bound.
MAX_POWER_TERMS = 1000


class _Parser:
    def __init__(self, tokens, ring):
        self.toks = tokens
        self.i = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self):
        kind, val, pos = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", pos)
            else:
                return p

    def factor(self):
        p = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                raise ParseError("negative exponent", pos)
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            self.take()
            if val * max(1, p.wdeg()) > MAX_POWER_DEGREE:
                raise ParseError("power of degree above %d" % MAX_POWER_DEGREE,
                                 pos)
            t = len(p.terms)
            if t > 1 and comb(t + val - 1, val) > MAX_POWER_TERMS:
                raise ParseError("power may expand to more than %d terms"
                                 % MAX_POWER_TERMS, pos)
            p = p ** val
        return p

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "int":
                    raise ParseError("denominator must be an integer", p3)
                if v3 == 0:
                    raise ParseError("zero denominator", p3)
                from fractions import Fraction
                q = Fraction(val, v3)
                char = self.ring.field.char
                if char and q.denominator % char == 0:
                    raise ParseError("denominator divisible by the "
                                     "characteristic %d" % char, pos)
                return self.ring.const(q)
            return self.ring.const(val)
        if kind == "name":
            if val not in self.ring._index:
                raise ParseError("unknown variable %r" % val, pos)
            return self.ring.var(val)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d"
                                 % MAX_NESTING, pos)
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            kind, val, pos = self.take()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return p
        raise ParseError("unexpected token %r" % (val,), pos)


def _parse(text, ring):
    parser = _Parser(_tokenize(text), ring)
    p = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % (val,), pos)
    return p


class Polynomial:
    """Immutable sparse polynomial; term dict maps exponent tuples to
    nonzero coefficients."""

    __slots__ = ("ring", "terms", "_sorted", "_packed", "_hash", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._sorted = None
        self._packed = None
        self._hash = None
        self._lead = None

    @classmethod
    def from_packed(cls, ring, packed):
        """The polynomial of descending (packed monomial, order key,
        coefficient) terms, with its sorted view and packed form set."""
        unpack = ring.packing.unpack
        view = tuple([(unpack(M), c) for M, _, c in packed])
        p = cls(ring, dict(view))
        p._sorted = view
        p._packed = tuple(packed)
        return p

    # -- canonical views --------------------------------------------------

    def sorted_terms(self):
        """Terms in descending monomial order (cached)."""
        if self._sorted is None:
            key = self.ring.mono_key
            self._sorted = tuple(sorted(self.terms.items(),
                                        key=lambda t: key(t[0]), reverse=True))
        return self._sorted

    def packed(self):
        """Terms as (packed monomial, order key, coefficient) in descending
        order (cached)."""
        if self._packed is None:
            packing = self.ring.packing
            pack, key = packing.pack, packing.key
            out = []
            for m, c in self.terms.items():
                M = pack(m)
                out.append((M, key(M), c))
            out.sort(key=itemgetter(1), reverse=True)
            self._packed = tuple(out)
        return self._packed

    def is_zero(self):
        return not self.terms

    def leading(self):
        """(monomial, coefficient) of the leading term; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if self._lead is None:
            if self._sorted is not None:
                self._lead = self._sorted[0]
            else:
                m = max(self.terms, key=self.ring.mono_key)
                self._lead = (m, self.terms[m])
        return self._lead

    def lm(self):
        return self.leading()[0]

    def lc(self):
        return self.leading()[1]

    def wdeg(self):
        """Weighted total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        w = self.ring.wdeg
        return max(w(m) for m in self.terms)

    def monic(self):
        if not self.terms:
            return self
        c = self.lc()
        if c == self.ring.field.one:
            return self
        return self * self.ring.field.inv(c)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def constant_term(self):
        return self.coefficient((0,) * len(self.ring.vars))

    def support_vars(self):
        """Names of variables that actually occur."""
        used = [False] * len(self.ring.vars)
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.ring.vars, used) if u)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial(self.ring, out)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            # scalar multiplication
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero
            return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()})
        self._check(other)
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        out = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square past the highest bit
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            body = []
            for v, e in zip(self.ring.vars, m):
                if e == 1:
                    body.append(v)
                elif e > 1:
                    body.append("%s^%d" % (v, e))
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if not body:
                piece = cs
            elif cs == "1":
                piece = "*".join(body)
            else:
                piece = "*".join([cs] + body)
            if not chunks:
                chunks.append("-" + piece if neg else piece)
            else:
                chunks.append((" - " if neg else " + ") + piece)
        return "".join(chunks)

    def __repr__(self):
        return "<%s>" % self


def _accumulate(out, m, c):
    s = out.get(m)
    if s is None:
        out[m] = c
    else:
        s = s + c
        if s:
            out[m] = s
        else:
            del out[m]


def _substitution(img):
    """How one variable's image enters a product of images: None for zero,
    (nonzero exponents as (index, exponent) pairs, coefficient or None for
    one) for a single term, the polynomial itself for several terms."""
    if not img.terms:
        return None
    if len(img.terms) > 1:
        return img
    (m, c), = img.terms.items()
    return ([(j, k) for j, k in enumerate(m) if k],
            None if c == img.ring.field.one else c)


class RingHom:
    """Algebra map determined by one image polynomial per domain variable."""

    __slots__ = ("domain", "codomain", "images", "_subst")

    def __init__(self, domain, codomain, images):
        images = tuple(images)
        if len(images) != len(domain.vars):
            raise ValueError("need %d images, got %d"
                             % (len(domain.vars), len(images)))
        for img in images:
            if img.ring != codomain:
                raise ValueError("image %r not in the codomain" % (img,))
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self._subst = tuple(_substitution(img) for img in images)

    @classmethod
    def from_map(cls, domain, codomain, mapping, default="same_name"):
        """Build from a name -> image dict; unmapped variables go to the
        codomain variable of the same name (or to 0 with default=0)."""
        images = []
        for v in domain.vars:
            if v in mapping:
                img = mapping[v]
                if isinstance(img, str):
                    img = codomain.parse(img)
                images.append(img)
            elif default == "same_name":
                images.append(codomain.var(v))
            elif default == 0:
                images.append(codomain.zero)
            else:
                raise KeyError("no image for variable %r" % v)
        return cls(domain, codomain, images)

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, ring.gens())

    def __call__(self, p):
        """Image of p by the substitution of the module docstring; each
        power of a several-term image is computed once per call."""
        if p.ring != self.domain:
            raise ValueError("argument not in the domain ring")
        coerce = self.codomain.field.coerce
        n = len(self.codomain.vars)
        subst = self._subst
        powers = {}
        out = {}
        for m, c in p.terms.items():
            c = coerce(c)
            exps = [0] * n
            factor = None
            for i, e in enumerate(m):
                if not e:
                    continue
                s = subst[i]
                if s is None:
                    break
                if isinstance(s, Polynomial):
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = s ** e
                    factor = pw if factor is None else factor * pw
                    continue
                sparse, ic = s
                for j, k in sparse:
                    exps[j] += e * k
                if ic is not None:
                    for _ in range(e):
                        c = c * ic
            else:
                if factor is None:
                    _accumulate(out, tuple(exps), c)
                else:
                    for fm, fc in factor.terms.items():
                        _accumulate(out,
                                    tuple(a + b for a, b in zip(exps, fm)),
                                    c * fc)
        return Polynomial(self.codomain, out)

    def then(self, other):
        """Composite ``other after self`` (apply self first)."""
        if other.domain != self.codomain:
            raise ValueError("homomorphisms do not compose")
        return RingHom(self.domain, other.codomain,
                       tuple(other(img) for img in self.images))

    def __repr__(self):
        pairs = ", ".join("%s->%s" % (v, img)
                          for v, img in zip(self.domain.vars, self.images))
        return "RingHom(%s)" % pairs


def fresh_names(candidates, taken):
    """Deterministically rename candidates to avoid the taken set."""
    out = []
    used = set(taken)
    for name in candidates:
        new = name
        while new in used:
            new = new + "_"
        used.add(new)
        out.append(new)
    return out
