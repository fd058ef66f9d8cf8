"""Degree-truncated linear-algebra oracles, independent of the reduction
machinery they check.

The oracles share no code with ``xsq.linalg`` or the Groebner engine: they
enumerate their own monomial bases and run their own dense Gauss-Jordan
elimination.  The normal-form oracle row-reduces the matrix of generator
multiples against the monomial basis of the filtered piece; for
weighted-homogeneous generators that matrix spans the ideal's filtered
piece exactly, so the reduced vector is the unique normal form.  Over
GF(p) every entry they compute is reduced mod p explicitly; the field
supplies only its inverse.

:func:`explicit_p2` is no elimination: it writes the generator families of
the second-order Peiffer ideal in closed form, for comparison with the
family instances that ``peiffer_P2`` pushes down from level 3, of which
:func:`s3_free_instances` keeps those whose support (:func:`support_vars`)
avoids the level-2 generators.

:func:`ideal_equal`, :func:`mono_key` and :func:`wdeg` are helpers that
only the tests read: equality of ideals by their reduced bases, and the
order key and the weighted degree of an exponent tuple.

:func:`certify` checks a reduced Groebner basis by Buchberger's criterion
with its own division on exponent tuples, and checks cofactor rows by
plain multiplication; it shares no code with the engine's division.
"""

from xsq.rings import reringed
from xsq.simplicial import _c_instances


def wdeg(ring, exps):
    """The weighted degree of an exponent tuple of ring."""
    return sum(e * w for e, w in zip(exps, ring.weights))


def is_whomogeneous(p):
    degs = {wdeg(p.ring, m) for m in p.exponent_terms()}
    return len(degs) <= 1


# -- dense elimination ------------------------------------------------------


def gauss_jordan(rows, field):
    """(pivot columns, fully reduced nonzero rows) of dense rows, pivots
    ascending."""
    p = field.char
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    pivots = []
    for col in range(width):
        done = len(pivots)
        hit = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[done], rows[hit] = rows[hit], rows[done]
        inv = field.inv(rows[done][col])
        piv = rows[done] = [x * inv % p if p else x * inv for x in rows[done]]
        for i, r in enumerate(rows):
            if i != done and r[col]:
                f = r[col]
                rows[i] = [(a - f * b) % p if p else a - f * b
                           for a, b in zip(r, piv)]
        pivots.append(col)
    return pivots, rows[:len(pivots)]


def rank(rows, field):
    return len(gauss_jordan(rows, field)[0])


def reduce(vec, pivots, reduced, field):
    """vec minus the combination of fully reduced rows that clears every
    pivot column."""
    p = field.char
    v = list(vec)
    for col, r in zip(pivots, reduced):
        if v[col]:
            f = v[col]
            v = [(a - f * b) % p if p else a - f * b for a, b in zip(v, r)]
    return v


def kernel_rows(rows, field):
    """Basis of {c : sum c_i rows_i = 0}, read off the free columns of the
    reduced transpose."""
    p = field.char
    n = len(rows)
    width = len(rows[0]) if rows else 0
    cols = [[rows[i][j] for i in range(n)] for j in range(width)]
    pivots, reduced = gauss_jordan(cols, field)
    out = []
    for free in range(n):
        if free in pivots:
            continue
        c = [field.zero] * n
        c[free] = field.one
        for col, r in zip(pivots, reduced):
            c[col] = -r[free] % p if p else -r[free]
        out.append(c)
    return out


# -- monomial bases -----------------------------------------------------------


def mono_key(ring, exps):
    """The order key of an exponent tuple: larger key, larger monomial in
    the ring's order."""
    packing = ring.packing
    return packing.key(packing.pack(exps))


def monomials_upto(ring, D):
    """Exponent tuples of weighted degree <= D, largest monomial first."""
    monos = [((), 0)]
    for w in ring.weights:
        monos = [(m + (e,), s + e * w) for m, s in monos
                 for e in range((D - s) // w + 1)]
    return sorted((m for m, _ in monos), key=lambda m: mono_key(ring, m),
                  reverse=True)


class Basis:
    """Coordinates against the monomials of weighted degree <= D."""

    def __init__(self, ring, D):
        self.ring = ring
        self.monos = monomials_upto(ring, D)
        self.index = {m: i for i, m in enumerate(self.monos)}

    def __len__(self):
        return len(self.monos)

    def to_vec(self, p):
        v = [self.ring.field.zero] * len(self.monos)
        for m, c in p.exponent_terms().items():
            v[self.index[m]] = c
        return v

    def from_vec(self, v):
        p = self.ring.zero
        for m, c in zip(self.monos, v):
            if c:
                p = p + self.ring.monomial(m, c)
        return p


def multiples(gens, ring, D):
    """Every m * g with wdeg(m * g) <= D, as polynomials."""
    out = []
    for g in gens:
        if g.is_zero() or g.wdeg() > D:
            continue
        for m in monomials_upto(ring, D - g.wdeg()):
            out.append(g * ring.monomial(m))
    return out


# -- oracles ------------------------------------------------------------------


class MacaulayNF:
    """Normal forms modulo an ideal with weighted-homogeneous generators,
    from an echelonized multiplication matrix up to a degree bound."""

    def __init__(self, gens, ring, D):
        for g in gens:
            assert is_whomogeneous(g), "oracle needs homogeneous generators"
        self.ring = ring
        self.D = D
        self.fb = Basis(ring, D)
        self.pivots, self.reduced = gauss_jordan(
            [self.fb.to_vec(p) for p in multiples(gens, ring, D)], ring.field)

    def nf(self, p):
        assert p.wdeg() <= self.D
        return self.fb.from_vec(reduce(self.fb.to_vec(p), self.pivots,
                                       self.reduced, self.ring.field))

    def member(self, p):
        return self.nf(p).is_zero()


def truncated_module_kernel(gens, ring, d):
    """Basis of {v : sum(v_i g_i) = 0, wdeg(v_i) <= d} as coordinate rows
    over the box-truncated vector space, by pure linear algebra."""
    fb_in = Basis(ring, d)
    top = max((g.wdeg() for g in gens if not g.is_zero()), default=0)
    fb_out = Basis(ring, d + top)
    rows = [fb_out.to_vec(ring.monomial(m) * g)
            for g in gens for m in fb_in.monos]
    return kernel_rows(rows, ring.field), fb_in


def vector_to_coords(vec, fb):
    out = []
    for p in vec:
        out.extend(fb.to_vec(p))
    return out


def face_kernel_dims(skel, D, rels_gens):
    """Filtered dimensions of (level-2 elements killed by every face)
    modulo the span of the relation generators, degree by degree, using
    only linear algebra on the face maps."""
    E2 = skel.E2
    field = E2.field
    dims = []
    faces = [skel.face[(2, 0)], skel.face[(2, 1)], skel.face[(2, 2)]]
    for d in range(D + 1):
        fb = Basis(E2, d)
        fb_out = Basis(skel.E1, d)
        rows = []
        for m in fb.monos:
            mono = E2.monomial(m)
            row = []
            for f in faces:
                row.extend(fb_out.to_vec(f(mono)))
            rows.append(row)
        kern = kernel_rows(rows, field)
        span = [fb.to_vec(p) for p in multiples(rels_gens, E2, d)]
        dims.append(rank(span + kern, field) - rank(span, field))
    return dims


def explicit_p2(skel):
    """Generators of the second-order Peiffer ideal written directly in E2:
    three families per pair of a level-1 and a level-2 construction
    generator and three per ordered pair of level-2 ones, so none without
    level-2 generators.  With the family instances that avoid the level-2
    generators they generate the ideal of ``peiffer_P2``."""
    E2 = skel.E2
    s0 = skel.degen[(1, 0)]
    s1 = skel.degen[(1, 1)]
    d2 = skel.face[(2, 2)]
    s3 = [E2.var(m) for m in skel.data.s3_names]
    gens = []
    for n, t in skel.data.s2:
        Sn = reringed(t, E2)       # s1 s0 d1 of the generator
        s0n, s1n = E2.var("s0_" + n), E2.var("s1_" + n)
        for T in s3:
            u0, u1 = s0(d2(T)), s1(d2(T))
            gens.append((Sn - s0n) * T)
            gens.append((s0n - s1n) * (u1 - T))
            gens.append(s1n * (u0 - u1 + T))
    for Ti in s3:
        v0i, v1i = s0(d2(Ti)), s1(d2(Ti))
        for Tj in s3:
            v0j, v1j = s0(d2(Tj)), s1(d2(Tj))
            gens.append(Ti * (v1j - Tj))
            gens.append(Ti * (Tj + v0j - v1j))
            gens.append((v0i - v1i + Ti) * (v1j - Tj))
    return gens


def support_vars(p):
    """Names of the variables that occur in p."""
    return {v for exps in p.exponent_terms()
            for v, e in zip(p.ring.vars, exps) if e}


def s3_free_instances(skel):
    """The level-3 family instances of ``peiffer_P2`` whose support avoids
    the copies s0_T, s1_T and s2_T of every level-2 generator T."""
    s3 = {"s%d_%s" % (i, t) for t in skel.data.s3_names for i in range(3)}
    return [z for z in _c_instances(skel) if not s3 & support_vars(z)]


# -- comparison of engine results ---------------------------------------------


def ideal_equal(I, J):
    """Whether two ideals of one ring have the same reduced basis."""
    if I.ring != J.ring:
        raise ValueError("ideal comparison needs a common ring")
    return I.groebner() == J.groebner()


# -- basis certificate --------------------------------------------------------


def _add_multiple(p, t, c, terms, char):
    """p += c * x^t * terms on a dict {exponent tuple: coefficient}."""
    for m, d in terms:
        n = tuple(map(sum, zip(t, m)))
        v = p.get(n, 0) + c * d
        if char:
            v %= char
        if v:
            p[n] = v
        else:
            p.pop(n, None)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _remainder(p, basis, ring):
    """The remainder of the dict p on division by basis, monic term lists
    with the leading term first: the largest term of p is taken off by the
    first element whose leading monomial divides it, or moved to the
    remainder."""
    char, p, rem = ring.field.char, dict(p), {}
    while p:
        m = max(p, key=lambda m: mono_key(ring, m))
        c = p.pop(m)
        for b in basis:
            if _divides(b[0][0], m):
                t = tuple(x - y for x, y in zip(m, b[0][0]))
                _add_multiple(p, t, -c, b[1:], char)
                break
        else:
            rem[m] = c
    return rem


def certify(gens, basis, rows=None):
    """The ways in which basis, polynomials of one ring, fails to be the
    reduced Groebner basis of the ideal of gens, by Buchberger's criterion
    and this module's own division; an empty list certifies it.

    basis must be monic, reduced and ascending by leading monomial, and
    every generator and every S-pair whose leading monomials are not
    coprime must reduce to zero by it (a coprime pair always does).  Then
    basis is the reduced basis of an ideal that contains the generators.
    That ideal is theirs when basis lies in it, which is checked only when
    cofactor rows are given: basis[i] must be the sum of rows[i][j] *
    gens[j] by plain multiplication."""
    problems = []
    if rows is not None and (len(rows) != len(basis) or any(
            sum((c * g for c, g in zip(row, gens)), b.ring.zero) != b
            for b, row in zip(basis, rows))):
        problems.append("the rows do not reproduce the basis")
    if not basis:
        return problems + ["generator %s does not reduce to zero" % g
                           for g in gens if not g.is_zero()]
    ring = basis[0].ring
    char, one = ring.field.char, ring.field.one
    terms = [list(b.exponent_terms().items()) for b in basis]
    lms = [t[0][0] for t in terms]
    for i, t in enumerate(terms):
        if t[0][1] != one:
            problems.append("element %d is not monic" % i)
        if any(j != i and _divides(lm, m)
               for m, _ in t for j, lm in enumerate(lms)):
            problems.append("element %d is not reduced" % i)
    keys = [mono_key(ring, m) for m in lms]
    if keys != sorted(keys):
        problems.append("leading monomials are not ascending")
    for g in gens:
        if g.ring != ring:
            raise ValueError("generator %s not in the basis's ring" % g)
        if _remainder(g.exponent_terms(), terms, ring):
            problems.append("generator %s does not reduce to zero" % g)
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            a, b = lms[i], lms[j]
            if not any(x and y for x, y in zip(a, b)):
                continue
            lcm = tuple(map(max, a, b))
            s = {}
            _add_multiple(s, tuple(x - y for x, y in zip(lcm, a)), 1,
                          terms[i], char)
            _add_multiple(s, tuple(x - y for x, y in zip(lcm, b)), -1,
                          terms[j], char)
            if _remainder(s, terms, ring):
                problems.append("S-pair (%d, %d) does not reduce to zero"
                                % (i, j))
    return problems
