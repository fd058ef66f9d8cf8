"""Sparse multivariate polynomials with exact coefficients.

A ring fixes an ordered variable list, a ground field, per-variable weights
(used for the degree filtration) and a monomial order.  Each ring packs a
monomial into one int (:class:`Packing`, kept as ``PolyRing.packing``), and
a polynomial is an immutable dict from packed monomials to nonzero
coefficients (residues in [0, p) over F_p, see :mod:`xsq.scalars`): a
monomial product is an int sum, and the order key is an int.  A polynomial
keeps no leading term: the Groebner engine keeps the leading monomials of a
basis beside it.  Exponent tuples appear only where monomials are read or
written: the parser and :meth:`PolyRing.monomial` pack them, and ``str()``
and :meth:`Polynomial.exponent_terms` unpack them.

The text grammar understood by :func:`PolyRing.parse`:

    expr   := ['+'|'-'] term ( ('+'|'-') term )*
    term   := factor ( '*' factor )*
    factor := atom [ '^' INT ]
    atom   := INT [ '/' INT ] | NAME | '(' expr ')'

Implicit multiplication is rejected, exponents must be non-negative, and
over F_p a literal INT/INT whose reduced denominator p divides is rejected.

A polynomial moves to a ring over the same field on the same variable
names (in another order, with another monomial order, with more variables,
or with fewer that cover its support) by :func:`reringed`, one linear map
of packed monomials.  A ring map (:class:`RingHom`) over one field is
applied term by term into one accumulator.  The image of a monomial is
computed once per map and kept: a zero image drops the term, each one-term
image adds its packed monomial scaled by the exponent (and its coefficient,
unless one), and only the powers of several-term images are multiplied
out.

An exponent above MAX_EXPONENT = 2^31 - 1, in a monomial that is packed or
parsed, and an exponent past it in a product, raise
:class:`ExponentOverflow`, a :class:`BudgetExceeded`.  Printing a
coefficient with more digits than ``str`` writes out for an int raises
:class:`CoefficientOverflow`, another.
"""

import re
import struct
import sys
from functools import reduce
from math import comb
from operator import add, mul, or_

from .scalars import QQ, reduced

# a variable name: a letter or underscore, then letters, digits, underscores
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
# largest value a field holds.  Fields are read with a struct of unsigned
# ints ("I", 4 bytes) in the machine's byte order.
_FIELD = 32
_VALUES = (1 << (_FIELD - 1)) - 1
MAX_EXPONENT = _VALUES
_BYTEORDER = sys.byteorder


class ExponentOverflow(BudgetExceeded):
    """An exponent above MAX_EXPONENT, in a monomial being packed or parsed,
    or in a product."""

    def __init__(self):
        super(BudgetExceeded, self).__init__(
            "exponent above the limit of %d" % MAX_EXPONENT)
        self.steps = None


class CoefficientOverflow(BudgetExceeded):
    """A coefficient with more digits than ``str`` writes out
    (``sys.get_int_max_str_digits()``), in a polynomial being printed."""

    def __init__(self):
        super(BudgetExceeded, self).__init__(
            "coefficient above the limit of %d digits"
            % sys.get_int_max_str_digits())
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

    :meth:`fields` reads the exponents in field order, low to high, and
    ``positions[i]`` is the place of variable i in it; :meth:`unpack`
    gives them in variable order.  The packed form of an exponent vector is
    checked against MAX_EXPONENT; a sum of two packed monomials overflows a
    field exactly when it sets a guard bit, and every product is checked.
    """

    __slots__ = ("units", "guards", "values", "pmask", "positions",
                 "_slots", "_nbytes", "_struct", "_degrees", "_weights")

    def __init__(self, weights, order):
        n = len(weights)
        if order == "lex":
            blocks, graded = [range(n - 1, -1, -1)], False
        elif order == "wdegrevlex":
            blocks, graded = [range(n)], True
        else:
            k = min(order[1], n)
            blocks, graded = [range(k, n), range(k)], True
        layout = []   # per 32-bit field, low to high: a variable or None
        degrees = []  # per degree field: its block, first field and width
        for block in blocks:
            if not block:
                continue
            layout.extend(block)
            if graded:
                width = -(-(sum(weights[i] for i in block)
                            * _VALUES).bit_length() // _FIELD)
                degrees.append((block, len(layout), width))
                layout.extend([None] * width)
        exponents = [i for i in layout if i is not None]
        self.positions = tuple(exponents.index(i) for i in range(n))
        self._slots = tuple(layout.index(i) for i in range(n))
        self._weights = tuple(weights[i] for i in exponents)
        units = [1 << (_FIELD * s) for s in self._slots]
        # per degree field: the weights in field order, its shift and mask
        self._degrees = []
        for block, first, width in degrees:
            for i in block:
                units[i] += weights[i] << (_FIELD * first)
            self._degrees.append((
                tuple(weights[i] if i in block else 0 for i in exponents),
                _FIELD * first, (1 << (_FIELD * width)) - 1))
        self.units = tuple(units)
        self._nbytes = len(layout) * _FIELD // 8
        self._struct = struct.Struct("=" + "".join(
            "I" if i is not None else "4x" for i in layout))
        self.values = sum(_VALUES << (_FIELD * s) for s in self._slots)
        self.guards = sum(1 << (_FIELD * s + _FIELD - 1) for s in self._slots)
        self.pmask = (self.values | self.guards) if graded else 0

    def pack(self, exps):
        if exps and max(exps) > MAX_EXPONENT:
            raise ExponentOverflow()
        return sum(map(mul, exps, self.units))

    def fields(self, M):
        """The exponents of M in field order."""
        return self._struct.unpack(M.to_bytes(self._nbytes, _BYTEORDER))

    def unpack(self, M):
        """The exponents of M in variable order."""
        return tuple(map(self.fields(M).__getitem__, self.positions))

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
            fields = self.fields(E)
            for per_field, shift, _ in self._degrees:
                E += sum(map(mul, fields, per_field)) << shift
        return E

    def lcm(self, a, b):
        return self.with_degrees(self.fieldmax(a, b))

    def wdeg(self, M):
        """The weighted degree of M: the sum of its degree fields."""
        if not self._degrees:
            return sum(map(mul, self.fields(M), self._weights))
        return sum([(M >> shift) & mask for _, shift, mask in self._degrees])

    def mask(self, indices):
        """The mask of the exponent fields of the variables at indices."""
        return sum(_VALUES << (_FIELD * self._slots[i]) for i in indices)

    def mapping(self, images):
        """The linear map of packed monomials that sends the i-th variable
        to the packed monomial images[i] (of this or another packing)."""
        fields = self.fields
        images = [images[i] for i in sorted(range(len(images)),
                                            key=self.positions.__getitem__)]
        return lambda M: sum(map(mul, fields(M), images))


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
            if not NAME.fullmatch(v):
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
        return Polynomial(self, {0: c})

    def var(self, name):
        if name not in self._index:
            raise KeyError("no variable %r in %r" % (name, self))
        return Polynomial(self, {self.packing.units[self._index[name]]:
                                 self.field.one})

    def gens(self):
        return tuple(self.var(v) for v in self.vars)

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != len(self.vars) or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector %r" % (exps,))
        c = self.field.coerce(coeff)
        if not c:
            return self.zero
        return Polynomial(self, {self.packing.pack(exps): c})

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


_TOKEN = re.compile(r"\s*(?:(\d+)|(%s)|([-+*^()/]))" % NAME.pattern)


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
    unpack = ring.packing.unpack
    if any(max(unpack(M), default=0) > MAX_EXPONENT for M in p.terms):
        raise ExponentOverflow()
    return p


class Polynomial:
    """Immutable sparse polynomial: terms maps packed monomials of its
    ring to nonzero coefficients."""

    __slots__ = ("ring", "terms", "_hash", "_str")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._str = None

    def exponent_terms(self):
        """The terms as a new dict {exponent tuple: coefficient}, in
        descending monomial order."""
        packing, terms = self.ring.packing, self.terms
        return {packing.unpack(M): terms[M]
                for M in sorted(terms, key=packing.key, reverse=True)}

    def is_zero(self):
        return not self.terms

    def wdeg(self):
        """Weighted total degree; -1 for the zero polynomial."""
        return max(map(self.ring.packing.wdeg, self.terms), default=-1)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        char = self.ring.field.char
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c, char)
        return Polynomial(self.ring, out)

    def __neg__(self):
        char = self.ring.field.char  # 0 over Q, where char - c is -c
        return Polynomial(self.ring,
                          {m: char - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """A monomial product is the sum of the packed monomials; a product
        with an exponent past MAX_EXPONENT sets a guard bit and raises.
        Coefficients are summed exactly and reduced once at the end."""
        char = self.ring.field.char
        if not isinstance(other, Polynomial):
            # scalar multiplication
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero
            return Polynomial(self.ring, reduced(
                {m: v * c for m, v in self.terms.items()}, char))
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return self.ring.zero
        rows = iter(a.items())
        m1, c1 = next(rows)
        out = {m1 + m2: c1 * c2 for m2, c2 in b.items()}  # no collisions
        for m1, c1 in rows:
            for m2, c2 in b.items():
                m = m1 + m2
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        out = reduced(out, char)
        if reduce(or_, out, 0) & self.ring.packing.guards:
            raise ExponentOverflow()
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
        if self._str is not None:
            return self._str
        chunks = []
        for m, c in self.exponent_terms().items():
            body = [v if e == 1 else "%s^%d" % (v, e)
                    for v, e in zip(self.ring.vars, m) if e]
            try:
                cs = str(c)
            except ValueError:
                raise CoefficientOverflow() from None
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
        self._str = "".join(chunks) or "0"
        return self._str

    def __repr__(self):
        return "<%s>" % self


def _accumulate(out, m, c, char):
    """out[m] += c, reduced mod char when char is nonzero; a sum of zero
    drops the term."""
    s = out.get(m)
    if s is not None:
        c = s + c
    if char:
        c %= char
    if c:
        out[m] = c
    elif s is not None:
        del out[m]


class RingHom:
    """Algebra map determined by one image polynomial per domain variable."""

    __slots__ = ("domain", "codomain", "images", "_monos", "_zero",
                 "_scaled", "_several", "_scale", "_memo")

    def __init__(self, domain, codomain, images):
        images = tuple(images)
        if len(images) != len(domain.vars):
            raise ValueError("need %d images, got %d"
                             % (len(domain.vars), len(images)))
        for img in images:
            if img.ring != codomain:
                raise ValueError("image %r not in the codomain" % (img,))
        if codomain.field != domain.field:
            raise ValueError("no ring map from %r to %r"
                             % (domain.field, codomain.field))
        self.domain = domain
        self.codomain = codomain
        self.images = images
        # per variable, at its place in the domain's field order
        unpack, place = codomain.packing.unpack, domain.packing.positions
        monos = [0] * len(images)
        zero, self._scaled, self._several = [], [], []
        columns = [0] * len(codomain.vars)
        for i, img in enumerate(images):
            if not img.terms:
                zero.append(i)
            elif len(img.terms) > 1:
                self._several.append((place[i], img))
            else:
                (N, c), = img.terms.items()
                monos[place[i]] = N
                if c != codomain.field.one:
                    self._scaled.append((place[i], c))
                columns = list(map(add, columns, unpack(N)))
        self._monos = tuple(monos)
        self._zero = domain.packing.mask(zero)
        # an image exponent passes the limit only if a domain exponent
        # times the largest column sum does
        self._scale = max(columns, default=0)
        self._memo = {}  # packed monomial -> the terms of its image

    @classmethod
    def from_map(cls, domain, codomain, mapping):
        """Build from a name -> image dict; unmapped variables go to the
        codomain variable of the same name."""
        return cls(domain, codomain,
                   [mapping[v] if v in mapping else codomain.var(v)
                    for v in domain.vars])

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, ring.gens())

    def __call__(self, p):
        """Image of p by the substitution of the module docstring; the
        image of each monomial is computed once per map."""
        if p.ring != self.domain:
            raise ValueError("argument not in the domain ring")
        memo, char = self._memo, self.codomain.field.char
        out = {}
        for M, c in p.terms.items():
            image = memo.get(M)
            if image is None:
                image = memo[M] = self._monomial(M)
            for N, f in image:
                _accumulate(out, N, c if f is None else c * f, char)
        return Polynomial(self.codomain, out)

    def _monomial(self, M):
        """The image of the monomial M as (packed monomial, coefficient)
        pairs, the coefficient None for one."""
        if M & self._zero:
            return ()
        e = self.domain.packing.fields(M)
        if self._scale > 1 and max(e) * self._scale > _VALUES:
            # the exponents of the one-term part of the image, exactly
            unpack = self.codomain.packing.unpack
            rows = [[k * f for f in unpack(N)] for k, N in zip(e, self._monos)]
            if max(map(sum, zip(*rows))) > _VALUES:
                raise ExponentOverflow()
        N = sum(map(mul, e, self._monos))
        char = self.codomain.field.char
        f = None  # a product of residues over F_p; the callers reduce it
        for i, c in self._scaled:
            if e[i]:
                c = pow(c, e[i], char or None)
                f = c if f is None else f * c
        factor = None
        for i, img in self._several:
            if e[i]:
                power = img ** e[i]
                factor = power if factor is None else factor * power
        if factor is None:
            return ((N, f),)
        if f is not None:
            factor = factor * f
        guards = self.codomain.packing.guards
        if any((N + fM) & guards for fM in factor.terms):
            raise ExponentOverflow()
        return tuple((N + fM, fc) for fM, fc in factor.terms.items())

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


def reringed(p, ring):
    """p in a ring over its field on its variable names: the same, more,
    or a subset that covers its support, in any order.  Repacked by the
    linear map between the two packings."""
    if p.ring == ring:
        return p
    src, index, units = p.ring, ring._index, ring.packing.units
    if src.field != ring.field:
        raise ValueError("no move from %r to %r" % (src.field, ring.field))
    dropped = src.packing.mask(i for i, v in enumerate(src.vars)
                               if v not in index)
    if any(M & dropped for M in p.terms):
        raise ValueError("polynomial %s uses dropped variables" % p)
    to = src.packing.mapping([units[index[v]] if v in index else 0
                              for v in src.vars])
    return Polynomial(ring, {to(M): c for M, c in p.terms.items()})


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
