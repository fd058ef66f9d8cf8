"""Exact dense linear algebra over the ground field, for degree-truncated
computations: spans, kernels and quotient dimensions of filtered pieces.

Vectors are coordinate lists against an explicit monomial basis; everything
is deterministic (fixed basis order, leftmost pivots).
"""

from __future__ import annotations

from .groebner import monomials_leq
from .rings import Polynomial


def rref(rows, field):
    """Reduced row echelon form; returns (pivot column list, reduced rows).
    Input rows are lists of field elements; zero rows are dropped."""
    rows = [list(r) for r in rows]
    pivots = []
    reduced = []
    width = len(rows[0]) if rows else 0
    col = 0
    work = rows
    while work and col < width:
        pivot_row = None
        for r in work:
            if r[col]:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        work.remove(pivot_row)
        inv = field.one / pivot_row[col]
        pivot_row = [x * inv for x in pivot_row]
        for r in work:
            if r[col]:
                f = r[col]
                for i in range(col, width):
                    r[i] = r[i] - f * pivot_row[i]
        for r in reduced:
            if r[col]:
                f = r[col]
                for i in range(col, width):
                    r[i] = r[i] - f * pivot_row[i]
        reduced.append(pivot_row)
        pivots.append(col)
        col += 1
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivots[i] for i in order], [reduced[i] for i in order]


class Echelon:
    """Incrementally built echelon span with membership reduction."""

    def __init__(self, width, field):
        self.width = width
        self.field = field
        self.pivot_of = {}   # column -> row
        self.rank = 0

    def reduce(self, vec):
        v = list(vec)
        for col in sorted(self.pivot_of):
            if v[col]:
                f = v[col]
                row = self.pivot_of[col]
                for i in range(col, self.width):
                    v[i] = v[i] - f * row[i]
        return v

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        for col in range(self.width):
            if v[col]:
                inv = self.field.one / v[col]
                v = [x * inv for x in v]
                for c, row in list(self.pivot_of.items()):
                    if row[col]:
                        f = row[col]
                        self.pivot_of[c] = [a - f * b for a, b in zip(row, v)]
                self.pivot_of[col] = v
                self.rank += 1
                return True
        return False

    def contains(self, vec):
        return not any(self.reduce(vec))


class FilteredBasis:
    """Monomial basis of {p in ring : wdeg p <= D} with coordinate maps."""

    def __init__(self, ring, D):
        self.ring = ring
        self.D = D
        self.monos = monomials_leq(ring, D)
        self.index = {m: i for i, m in enumerate(self.monos)}

    def __len__(self):
        return len(self.monos)

    def to_vec(self, p):
        v = [self.ring.field.zero] * len(self.monos)
        for m, c in p.terms.items():
            i = self.index.get(m)
            if i is None:
                raise ValueError("degree of %s exceeds the truncation" % p)
            v[i] = c
        return v

    def from_vec(self, v):
        terms = {m: c for m, c in zip(self.monos, v) if c}
        return Polynomial(self.ring, terms)


def truncated_ideal_span(gens, fbasis):
    """Echelon span of {monomial * g : wdeg <= D}; exact for ideals with
    weighted-homogeneous generators, a lower bound otherwise."""
    ring = fbasis.ring
    ech = Echelon(len(fbasis), ring.field)
    for g in gens:
        if g.is_zero():
            continue
        room = fbasis.D - g.wdeg()
        if room < 0:
            continue
        for m in monomials_leq(ring, room):
            shifted = Polynomial(ring, {tuple(a + b for a, b in zip(m, t)): c
                                        for t, c in g.terms.items()})
            ech.add(fbasis.to_vec(shifted))
    return ech

