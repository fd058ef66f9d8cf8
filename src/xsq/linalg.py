"""Exact sparse linear algebra over the ground field, for degree-truncated
computations: ranks, kernels and normal forms of filtered pieces.

Vectors are sparse coordinates against an explicit basis of packed
monomials: a dict column -> value.  ``Echelon`` keeps a sparse
semi-echelon form: a pivot row is a list of (column, value) pairs right of
its pivot, normalised to pivot 1, and the pivot columns stay in a sorted
list.  A new row is reduced against the earlier ones, which are never
back-substituted; ``reduce`` still clears every pivot column, in ascending
order, so it returns the unique normal form of a vector modulo the span.
``rref`` runs the same elimination and back-substitutes once at the end;
``nullity`` is the number of rows minus their rank.

A filtered rank or nullity row d = 0..D is one graded sweep:
``Echelon.sweep`` adds the vectors of each degree piece in turn and reads
the rank and the nullity at each degree boundary; ``graded_span`` sweeps
the multiples m * v with wdeg m + wdeg v <= D.  Rows are never modified
after insertion, so the first ``ranks[d]`` rows are a basis of the
degree-d piece.  Everything is deterministic (fixed basis order, leftmost
pivots).
"""

from bisect import insort
from heapq import heapify, heappop, heappush

from .groebner import _monomials
from .scalars import reduced


class Echelon:
    """Incrementally built sparse semi-echelon span with membership
    reduction."""

    def __init__(self, field):
        self.field = field
        self.pivots = []    # sorted pivot columns
        self.rows = {}      # pivot column -> [(column, value)] right of it
        self.ranks = []     # rank at each degree boundary of a sweep

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Normal form of vec modulo the span, as a dict of its nonzero
        entries; no entry lies in a pivot column.  Over F_p the entries
        sum exact integers until they are read: an entry is reduced when
        its pivot column is cleared, and the normal form at the end.  A zero
        entry of vec is dropped: it must not become a pivot."""
        v = {c: x for c, x in vec.items() if x}
        rows, char = self.rows, self.field.char
        todo = [c for c in v if c in rows]
        heapify(todo)
        while todo:
            col = heappop(todo)
            f = v.pop(col, None)
            if f is None:
                continue
            if char:
                f %= char
                if not f:
                    continue
            for c, x in rows[col]:
                y = v.get(c)
                if y is None:
                    v[c] = -f * x
                    if c in rows:
                        heappush(todo, c)
                else:
                    y = y - f * x
                    if y:
                        v[c] = y
                    else:
                        del v[c]
        return reduced(v, char)

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        col = min(v)
        u, char = self.field.inv(v.pop(col)), self.field.char
        self.rows[col] = [(c, x * u % char if char else x * u)
                          for c, x in v.items()]
        insort(self.pivots, col)
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def sweep(self, pieces):
        """Add the vectors of each piece in turn, d = 0..D, appending the
        rank after each piece to ranks; returns the nullity row: the number
        of vectors added up to piece d minus the rank there."""
        added, row = 0, []
        for piece in pieces:
            for vec in piece:
                self.add(vec)
                added += 1
            self.ranks.append(self.rank)
            row.append(added - self.rank)
        return row

    def basis(self, count=None):
        """The first count inserted rows (all by default) as sparse
        vectors."""
        one = self.field.one
        return [{col: one, **dict(row)}
                for col, row in list(self.rows.items())[:count]]


def rref(rows, field):
    """Reduced row echelon form of sparse rows; returns (pivot column list,
    reduced sparse rows), zero rows dropped."""
    ech = Echelon(field)
    for r in rows:
        ech.add(r)
    return list(ech.pivots), [
        {col: field.one, **ech.reduce(dict(ech.rows[col]))}
        for col in ech.pivots]


def nullity(rows, field):
    """Dimension of the linear relations among the rows."""
    return len(rows) - len(rref(rows, field)[0])


class FilteredBasis:
    """Basis of {p in ring : wdeg p <= D}: the packed monomials in
    descending order, the ones of each weighted degree d in basis order as
    by_degree[d], and coordinate maps."""

    def __init__(self, ring, D):
        self.ring = ring
        self.D = D
        monos = _monomials(ring, D)
        self.monos = [M for M, _ in monos]
        self.by_degree = [[] for _ in range(D + 1)]
        for M, d in monos:
            self.by_degree[d].append(M)
        self.index = {M: i for i, M in enumerate(self.monos)}

    def __len__(self):
        return len(self.monos)

    def coords(self, vec, shift=0):
        """Sparse coordinates of shift * vec, for a module vector vec (a
        tuple of polynomials, one block of the basis per slot) and an
        optional packed monomial shift."""
        size, index = len(self.monos), self.index
        out = {}
        for k, p in enumerate(vec):
            if p.ring != self.ring:
                raise ValueError("polynomial not in the basis ring")
            base = k * size
            for t, c in p.terms.items():
                out[base + index[t + shift]] = c
        return out


def graded_span(vecs, fbasis):
    """Echelon span of the multiples m * v of module vectors with
    wdeg m + top(v) <= D, added in degree order by one sweep; ranks[d] is
    the rank of the degree-d piece.  top(v) is the largest weighted degree
    of an entry of v (the box filtration)."""
    D, by_degree = fbasis.D, fbasis.by_degree
    by_top = [[] for _ in range(D + 1)]
    for v in vecs:
        t = max((p.wdeg() for p in v), default=-1)
        if 0 <= t <= D:
            by_top[t].append(v)
    ech = Echelon(fbasis.ring.field)
    ech.sweep([fbasis.coords(v, m) for t in range(d + 1) for v in by_top[t]
               for m in by_degree[d - t]] for d in range(D + 1))
    return ech


def truncated_ideal_span(gens, fbasis):
    """Graded span of {monomial * g : wdeg <= D}; exact for ideals with
    weighted-homogeneous generators, a lower bound otherwise."""
    return graded_span([(g,) for g in gens], fbasis)
