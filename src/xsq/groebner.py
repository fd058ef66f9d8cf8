"""Groebner engine: reduced bases, normal forms, elimination, intersections,
kernels of ring maps, cofactor lifting, syzygies and affine Hilbert data,
and the subquotient numer/rels of two ideals of one ring, whose rows are
read from them.  A subquotient is given by its two ideals alone: its ring
and generators are the numerator's, and it refuses a relation outside the
numerator.

Buchberger's algorithm with the Gebauer-Moller pair criteria ("On an
installation of Buchberger's algorithm", J. Symb. Comp. 1988) and the normal
selection strategy; every basis is reduced (monic, auto-reduced, sorted by
leading monomial), hence canonical for its order.  Inside a ``with
budget(limit):`` block every computation spends from one step counter, which
counts the S-pairs reduced plus the reduction steps, and the step past the
limit raises :class:`BudgetExceeded` instead of silently truncating.
Outside any block no limit applies.

The input generators are inserted lazily: each waits in the pair queue
under its leading monomial and, when popped, is reduced against the basis
so far like an S-polynomial, so a redundant generator never becomes a basis
element or forms pairs.  The reduced basis is the same for any insertion
order.  The cofactor rows that :meth:`Ideal.lift` and :func:`syzygies` read
are not unique, and printed relations depend on them, so the tracked path
keeps every generator as a basis element from the start (a zero one keeps
an empty column).  One routine, ``_combine``, writes every cofactor row:
of a basis element, of a syzygy and of a lift.

The engine works on the packed monomials that polynomials store
(:class:`rings.Packing`): a product is one int sum, a quotient one
difference, a divisibility test one subtraction and a mask, and the order
key is an int linear in the monomial.  A reducer is a tuple of (monomial,
key, coefficient) terms with the leading term first, and ``Ideal._cache``
keeps each reduced basis in that form, with its leading monomials, beside
its polynomials.  Division reduces a dividend keyed by order key in place
and gives each new term the key key(t) + key(m).  A polynomial moves to
the work ring of another order or to an elimination ring by
:func:`rings.reringed`.  An exponent above 2^31 - 1 in a product the
engine forms raises :class:`ExponentOverflow`, a :class:`BudgetExceeded`.

An elimination result (also of :func:`ideal_intersect` and
:func:`hom_kernel`) carries the reduced basis it was read from, as its
generators and cached: the block-order basis elements whose cached leading
monomials are free of the block.  Only :func:`eliminate` builds the
block-order ring; the other two write their generators in the ring extended
by the variables to eliminate.  The monomials of weighted degree <= D are
listed by one packed recursion (``_monomials``), for Hilbert counts and
:class:`linalg.FilteredBasis`.
"""

import heapq
import math
from contextlib import contextmanager
from itertools import accumulate, islice
from operator import itemgetter

from .rings import (BudgetExceeded, ExponentOverflow, Polynomial, PolyRing,
                    RingHom, fresh_names, reringed)
from .scalars import reduced

DEFAULT_BUDGET = 10**6


class NotInIdeal(ValueError):
    pass


class _Budget:
    __slots__ = ("left", "limit")

    def __init__(self, limit):
        self.left = limit
        self.limit = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded(self.limit)


_steps = _Budget(math.inf)  # the counter in force; no limit outside a block


@contextmanager
def budget(limit):
    """A block in which the Groebner steps of every computation together
    are at most limit.  Yields the counter: ``limit - left`` is the steps
    spent so far.  On exit the counter in force before is restored, so
    blocks nest."""
    global _steps
    outer, _steps = _steps, _Budget(limit)
    try:
        yield _steps
    finally:
        _steps = outer


def _terms(p):
    """The terms of p as (packed monomial, order key, coefficient) triples
    in descending order."""
    key = p.ring.packing.key
    return tuple(sorted([(M, key(M), c) for M, c in p.terms.items()],
                        key=itemgetter(1), reverse=True))


def _polynomial(ring, terms):
    """The polynomial of descending (monomial, key, coefficient) terms."""
    return Polynomial(ring, {M: c for M, _, c in terms})


def _dividend(terms):
    """Packed terms as a mutable dividend: {order key: coefficient} and
    {order key: packed monomial}."""
    return ({k: c for _, k, c in terms}, {k: m for m, k, _ in terms})


def _add_multiple(h, monos, terms, t, kt, f, guards):
    """h += f * x^t * terms on a dividend: terms are packed (M, key, c)
    triples and the key of each product is key(t) + key(M).  A product
    whose key is new is checked against the exponent limit; a product that
    overflows a field has a key no valid monomial has, so the check covers
    every product."""
    for tm, ktm, tc in terms:
        kn = kt + ktm
        v = h.get(kn)
        if v is None:
            if kn not in monos:
                n = t + tm
                if n & guards:
                    raise ExponentOverflow()
                monos[kn] = n
            h[kn] = f * tc
        else:
            v = v + f * tc
            if v:
                h[kn] = v
            else:
                del h[kn]


def _divide(h, monos, reducers, guards, char, want_quotients=True,
            lms=None):
    """Multivariate division of the dividend (h, monos) by the packed
    reducers: h = sum(q_i * reducer_i) + r with no monomial of r divisible
    by any leading monomial of a reducer.  Deterministic: the first divisor
    in list order wins, and every term taken off the dividend costs one
    step of the budget in force.  Every reducer is monic; char is the
    field's characteristic.

    The dividend is reduced in place; its leading term is the one of
    largest key.  Over F_p (char > 0) it sums exact integers, and a term
    is reduced mod char when it is taken off: one that vanishes is dropped
    at no step, as an exact zero is dropped when it arises.  lms, when
    given, are the reducers' leading monomials.  Returns the quotients as
    {packed monomial: coefficient} dicts (None unless wanted) and the
    remainder as descending packed terms."""
    if lms is None:
        lms = [r[0][0] for r in reducers]
    quots = [{} for _ in reducers] if want_quotients else None
    rem = []
    spend = _steps.spend
    while h:
        k = max(h)
        c = h.pop(k)
        if char:
            c %= char
            if not c:
                continue
        m = monos[k]
        spend()
        for i, lm in enumerate(lms):
            t = m - lm
            if not t & guards:
                red = reducers[i]
                _add_multiple(h, monos, islice(red, 1, None), t,
                              k - red[0][1], -c, guards)
                if want_quotients:
                    quots[i][t] = c  # each t once: lm(h) only falls
                break
        else:
            rem.append((m, k, c))
    return quots, rem


def _scaled(terms, c, char):
    return tuple([(m, k, v * c % char if char else v * c)
                  for m, k, v in terms])


def _spoly(f, a, g, b, packing):
    """x^a * f - x^b * g for monic packed f and g, as a dividend."""
    key, one = packing.key, f[0][2]
    h, monos = {}, {}
    _add_multiple(h, monos, f, a, key(a), one, packing.guards)
    _add_multiple(h, monos, g, b, key(b), -one, packing.guards)
    return h, monos


def _unit_row(k, j, c):
    """The cofactor row c * e_j of width k."""
    return tuple({0: c} if i == j else {} for i in range(k))


def _scaled_row(row, u, char):
    """u * row with every coefficient reduced."""
    return tuple(reduced({m: c * u for m, c in p.items()}, char) for p in row)


def _combine(k, parts, quots, rows, guards):
    """The cofactor row sum(q * row for q, row in parts) minus
    sum(quots[t] * rows[t]) of width k.  Rows are tuples of {packed
    monomial: coefficient} dicts and each q is one such dict.  Coefficients
    are summed exactly; the caller reduces the finished row."""
    acc = [{} for _ in range(k)]
    parts = list(parts) + [({m: -c for m, c in q.items()}, row)
                           for q, row in zip(quots, rows) if q]
    for q, row in parts:
        for out, p in zip(acc, row):
            for qm, qc in q.items():
                for pm, pc in p.items():
                    n = qm + pm
                    if n & guards:
                        raise ExponentOverflow()
                    v = out.get(n)
                    if v is None:
                        out[n] = qc * pc
                    else:
                        v = v + qc * pc
                        if v:
                            out[n] = v
                        else:
                            del out[n]
    return acc


def _buchberger(gens, ring, track=False):
    """Reduced Groebner basis of packed generators, optionally with
    cofactor rows.

    Returns (basis, rows) with basis[i] = sum_j rows[i][j] * gens[j] when
    track is set (rows is None otherwise); the basis is monic, auto-reduced
    and sorted ascending by leading monomial, each element as descending
    packed terms, and each row a tuple of {packed monomial: coefficient}
    dicts.

    Critical pairs are kept by the Gebauer-Moller update (``_update``) and
    reduced in the normal strategy, smallest lcm first.  Untracked, each
    generator is queued under its leading monomial (before the pairs with
    that lcm) and joins the basis only if its remainder on popping is
    nonzero.  Tracked, every generator joins up front.  Every element stays
    in the reducer list, so the cofactor rows index all of them.  A zero
    generator is an empty term tuple and never joins.
    """
    k = len(gens)
    one, inv, char = ring.field.one, ring.field.inv, ring.field.char
    packing = ring.packing
    guards = packing.guards

    G, lms, rows = [], [], ([] if track else None)
    pairs, active, heap = {}, [], []
    for i, g in enumerate(gens):
        if not g:
            continue
        if not track:  # queued by leading monomial, reduced when popped
            heapq.heappush(heap, (g[0][1], -1, i))
            continue
        u = inv(g[0][2])
        rows.append(_unit_row(k, i, u))
        G.append(g if u == one else _scaled(g, u, char))
        lms.append(g[0][0])
        _update(len(G) - 1, lms, active, pairs, heap, packing)
    while heap:
        _, i, j = heapq.heappop(heap)  # normal strategy: smallest lcm first
        if i < 0:
            h, monos = _dividend(gens[j])
        else:
            lcm = pairs.pop((i, j), None)
            if lcm is None:
                continue  # dropped by a later update
            _steps.spend()
            a, b = lcm - lms[i], lcm - lms[j]
            h, monos = _spoly(G[i], a, G[j], b, packing)
        quots, rem = _divide(h, monos, G, guards, char,
                             want_quotients=track, lms=lms)
        if not rem:
            continue
        u = inv(rem[0][2])
        if track:
            rows.append(_scaled_row(_combine(
                k, [({a: one}, rows[i]), ({b: -one}, rows[j])], quots, rows,
                guards), u, char))
        G.append(_scaled(rem, u, char))
        lms.append(rem[0][0])
        _update(len(G) - 1, lms, active, pairs, heap, packing)

    return _reduce_basis(G, rows, ring)


def _update(n, lms, active, pairs, heap, packing):
    """Gebauer-Moller update for the new element n.

    The new pairs (t, n) for the active t keep only the minimal lcms, one
    pair per lcm (the smallest t), and none whose lcm is also that of a
    coprime pair.  A queued pair (i, j) is dropped when lm(n) divides its
    lcm and that lcm differs from both lcm(i, n) and lcm(j, n).  Active
    elements whose leading monomial lm(n) divides stop forming pairs."""
    guards, values, fieldmax = packing.guards, packing.values, packing.fieldmax
    lm_n = lms[n]
    for ij in [ij for ij, lcm in pairs.items() if not (lcm - lm_n) & guards
               and fieldmax(lms[ij[0]], lm_n) != lcm & values
               and fieldmax(lms[ij[1]], lm_n) != lcm & values]:
        del pairs[ij]
    # lcms by their exponent fields alone until a pair is queued
    first, coprime = {}, set()  # lcm -> smallest t; lcms of coprime pairs
    for t in active:
        lcm = fieldmax(lms[t], lm_n)
        first.setdefault(lcm, t)
        if lcm == (lms[t] + lm_n) & values:
            coprime.add(lcm)
    # A proper divisor of an lcm is a smaller int, and is itself divided by
    # a minimal lcm, so in ascending order each lcm is tested only against
    # the minimal ones found so far.
    minimal = []
    for lcm in sorted(first):
        for o in minimal:
            if not (lcm - o) & guards:
                break
        else:
            minimal.append(lcm)
            if lcm not in coprime:
                t = first[lcm]
                lcm = packing.with_degrees(lcm)
                pairs[(t, n)] = lcm
                heapq.heappush(heap, (packing.key(lcm), t, n))
    active[:] = [t for t in active if (lms[t] - lm_n) & guards]
    active.append(n)


def _reduce_basis(G, rows, ring):
    """Minimalize and tail-reduce; canonical output order."""
    one, inv, char = ring.field.one, ring.field.inv, ring.field.char
    guards = ring.packing.guards
    track = rows is not None
    keep = []
    for i in sorted(range(len(G)), key=lambda i: (G[i][0][1], i)):
        lm = G[i][0][0]
        if any(not (lm - G[j][0][0]) & guards for j in keep):
            continue
        keep.append(i)
    basis = [G[i] for i in keep]
    brows = [rows[i] for i in keep] if track else None
    out, out_rows = [], ([] if track else None)
    for idx, b in enumerate(basis):
        # no other kept leading monomial divides lm(b): rem keeps it
        quots, rem = _divide(*_dividend(b), basis[:idx] + basis[idx + 1:],
                             guards, char, want_quotients=track)
        u = inv(rem[0][2])
        if track:
            row = _combine(len(brows[idx]), [({0: one}, brows[idx])], quots,
                           brows[:idx] + brows[idx + 1:], guards)
            out_rows.append(_scaled_row(row, u, char))
        out.append(_scaled(rem, u, char))
    ranks = sorted(range(len(out)), key=lambda i: out[i][0][1])
    return ([out[i] for i in ranks],
            [out_rows[i] for i in ranks] if track else None)


class Ideal:
    """Generator list with cached reduced bases, one per monomial order."""

    def __init__(self, ring, gens):
        self.ring = ring
        cleaned = {}  # insertion-ordered set: the first copy of each wins
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise ValueError("generator %r not in the ring" % (g,))
            if not g.is_zero():
                cleaned.setdefault(g)
        self.gens = tuple(cleaned)
        self._cache = {}

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.gens)

    def _computed(self, order=None, *, track=False):
        """(work ring, basis, rows, reducers, lms) for the requested order:
        the basis as polynomials of the work ring, as reducers and as their
        leading monomials, and the cofactor rows of packed dicts only when
        tracking was requested at some point."""
        tag = self.ring.order if order is None else order
        hit = self._cache.get(tag)
        if hit is None or (track and hit[2] is None):
            work = self.ring if tag == self.ring.order else self.ring.with_order(tag)
            gens = [_terms(reringed(g, work)) for g in self.gens]
            basis, rows = _buchberger(gens, work, track=track)
            self._cache[tag] = (work, tuple(_polynomial(work, b)
                                            for b in basis), rows, basis,
                                tuple(b[0][0] for b in basis))
        return self._cache[tag]

    def groebner(self, order=None):
        """Reduced basis, unique for (ideal, order), as ring elements."""
        basis = self._computed(order)[1]
        return tuple(reringed(b, self.ring) for b in basis)

    def _divided(self, p, track):
        """(rows, quotients, remainder) of p divided by the cached basis in
        the ring's order: the basis's cofactor rows and the quotients as
        packed dicts, both None unless track is set, and the remainder as a
        polynomial of the work ring."""
        if p.ring != self.ring:
            raise ValueError("polynomial not in the ideal's ring")
        work, _, rows, basis, lms = self._computed(track=track)
        quots, rem = _divide(*_dividend(_terms(reringed(p, work))), basis,
                             work.packing.guards, work.field.char,
                             want_quotients=track, lms=lms)
        return rows, quots, _polynomial(work, rem)

    def normal_form(self, p):
        return reringed(self._divided(p, False)[2], self.ring)

    def member(self, p):
        return self.normal_form(p).is_zero()

    def lift(self, p):
        """Cofactors against the original generators; exact identity
        sum(c_i * gens_i) == p, or :class:`NotInIdeal`."""
        rows, quots, rem = self._divided(p, True)
        if not rem.is_zero():
            raise NotInIdeal("polynomial is not a member: residue %s" % rem)
        work = rem.ring
        cof = _combine(len(self.gens), zip(quots, rows), (), (),
                       work.packing.guards)
        cof = tuple(Polynomial(work, reduced(c, work.field.char)) for c in cof)
        check = self.ring.zero
        for c, g in zip(cof, self.gens):
            check = check + c * g
        if check != p:
            raise AssertionError("cofactor lift failed to reproduce input")
        return cof

    def is_zero(self):
        return not self.gens

    def __add__(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise ValueError("ideal sum needs a common ring")
        if other.is_zero():
            return self
        return Ideal(self.ring, self.gens + other.gens)


def eliminate(I, drop):
    """I intersected with the subring on the retained variables, via a
    block order with the dropped variables in the leading block."""
    ring = I.ring
    dropset = set(drop)
    unknown = dropset - set(ring.vars)
    if unknown:
        raise ValueError("cannot eliminate unknown variables %s"
                         % sorted(unknown))
    drop = [v for v in ring.vars if v in dropset]
    keep = [v for v in ring.vars if v not in dropset]
    target = ring.drop_to(keep)
    if not drop:
        return Ideal(target, [reringed(g, target) for g in I.gens])
    weights = tuple(ring.weights[ring._index[v]] for v in drop + keep)
    work = PolyRing(tuple(drop + keep), ring.field, weights,
                    ("block", len(drop)))
    elim = Ideal(work, [reringed(g, work) for g in I.gens])
    _, basis, _, _, lms = elim._computed()
    # the elements with leading monomial free of the block lie in the subring
    # and are its reduced basis for the inner order, the target's order
    block = work.packing.mask(range(len(drop)))
    kept = tuple(reringed(b, target) for b, lm in zip(basis, lms)
                 if not lm & block)
    K = Ideal(target, kept)
    reducers = tuple(_terms(b) for b in kept)
    K._cache[target.order] = (target, kept, None, reducers,
                              tuple(r[0][0] for r in reducers))
    return K


def ideal_intersect(I, J):
    """Tag-variable trick: eliminate t from t*I + (1-t)*J."""
    ring = I.ring
    if J.ring != ring:
        raise ValueError("intersection needs a common ring")
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    tag = fresh_names(["t__"], ring.vars)[0]
    ext = ring.extend((tag,), (1,))
    t = ext.var(tag)
    gens = [t * reringed(g, ext) for g in I.gens]
    gens += [(ext.one - t) * reringed(h, ext) for h in J.gens]
    K = eliminate(Ideal(ext, gens), [tag])
    if K.ring == ring:  # every wdegrevlex ring: K and its seeded basis
        return K
    return Ideal(ring, [reringed(g, ring) for g in K.gens])


def hom_kernel(h):
    """Kernel of a ring map as an ideal of the domain, via the graph ideal
    and elimination of (tagged copies of) the codomain variables."""
    dom, cod = h.domain, h.codomain
    tags = fresh_names(["k__" + v for v in cod.vars], dom.vars)
    ext = dom.extend(tags, cod.weights)
    cod_emb = RingHom(cod, ext, tuple(ext.var(t) for t in tags))
    graph = [ext.var(v) - cod_emb(h(dom.var(v))) for v in dom.vars]
    K = eliminate(Ideal(ext, graph), tags)
    if K.ring == dom:  # every wdegrevlex ring: K and its seeded basis
        return K
    return Ideal(dom, [reringed(g, dom) for g in K.gens])


def syzygies(gens, ring):
    """Generating set of {v : sum(v_i * g_i) = 0} for a tuple of generators
    of ring, as tuples of polynomials.

    Schreyer-style: the e_i of the zero generators, the syzygies of the
    reduced basis coming from all S-pair reductions, pulled back through
    the cofactor rows, and the identity defects of the nonzero
    generators."""
    gens = tuple(gens)
    k = len(gens)
    one, char = ring.field.one, ring.field.char
    packing = ring.packing
    guards = packing.guards
    terms = [_terms(reringed(g, ring)) for g in gens]
    basis, rows = _buchberger(terms, ring, track=True)
    syz = [_unit_row(k, i, one) for i, g in enumerate(terms) if not g]
    m = len(basis)
    # S-pair syzygies of the reduced basis; no pair is skipped here
    for i in range(m):
        for j in range(i + 1, m):
            lm_i, lm_j = basis[i][0][0], basis[j][0][0]
            lcm = packing.lcm(lm_i, lm_j)
            a, b = lcm - lm_i, lcm - lm_j
            quots, rem = _divide(*_spoly(basis[i], a, basis[j], b, packing),
                                 basis, guards, char)
            if rem:
                raise AssertionError("S-polynomial of a basis did not vanish")
            syz.append(_combine(k, [({a: one}, rows[i]), ({b: -one}, rows[j])],
                                quots, rows, guards))
    # identity defects: e_j minus the expansion of g_j through the basis
    for j, g in enumerate(terms):
        if not g:
            continue
        quots, rem = _divide(*_dividend(g), basis, guards, char)
        if rem:
            raise AssertionError("generator did not reduce to zero")
        syz.append(_combine(k, [({0: one}, _unit_row(k, j, one))], quots,
                            rows, guards))
    out = []
    for v in syz:
        v = tuple(Polynomial(ring, reduced(p, char)) for p in v)
        if all(p.is_zero() for p in v):
            continue
        check = ring.zero
        for p, g in zip(v, gens):
            check = check + p * g
        if not check.is_zero():
            raise AssertionError("claimed syzygy does not annihilate")
        if v not in out:
            out.append(v)
    return tuple(out)


def _monomials(ring, D, lms=()):
    """The (packed monomial, weighted degree) pairs of the monomials of
    weighted degree <= D that no packed monomial in lms divides, in
    descending order of the ring.

    The monomials are built one variable at a time.  A monomial of lms is
    tested when its last variable is set; once it divides, the higher powers
    of that variable, and every monomial above them, are skipped."""
    packing = ring.packing
    guards, units, weights = packing.guards, packing.units, ring.weights
    n = len(units)
    by_last = [[] for _ in range(n)]
    for lm in lms:
        used = [i for i, e in enumerate(packing.unpack(lm)) if e]
        if not used:
            return []  # the unit ideal
        by_last[used[-1]].append(lm)
    out = []

    def rec(i, left, M):
        if i == n:
            out.append((M, D - left))
            return
        lts, unit, w = by_last[i], units[i], weights[i]
        while True:
            rec(i + 1, left, M)
            left -= w
            M += unit
            if left < 0 or any(not (M - lt) & guards for lt in lts):
                return

    if D >= 0:
        rec(0, D, 0)
    key = packing.key
    out.sort(key=lambda s: key(s[0]), reverse=True)
    return out


def standard_monomials(I, D):
    """(work, standard): the wdegrevlex ring on the variables of I, and the
    (packed monomial, weighted degree) pairs of the monomials of weighted
    degree <= D that no leading monomial of its reduced basis of I divides,
    in descending order."""
    work, _, _, _, lms = I._computed("wdegrevlex")
    return work, _monomials(work, D, lms)


def affine_hilbert(I, D):
    """The tuple of dimensions of {p : wdeg p <= d} / (I cap same) for
    d = 0..D, read off the leading-term data of a degree-compatible basis."""
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    counts = [0] * (D + 1)
    for _, d in standard_monomials(I, D)[1]:
        counts[d] += 1
    return tuple(accumulate(counts))


def subquotient_dims(numer, rels, D):
    """The tuple of filtered dimensions of numer/rels for nested ideals
    rels <= numer."""
    hn = affine_hilbert(numer, D)
    hr = affine_hilbert(rels, D)
    return tuple(r - n for n, r in zip(hn, hr))


class Subquotient:
    """Elements of numer/rels for two ideals of one ring, represented by
    the ring's polynomials; every relation must lie in the numerator."""

    def __init__(self, numer, rels):
        if rels.ring != numer.ring:
            raise ValueError("numerator and relations need a common ring")
        for g in rels.gens:
            if not numer.member(g):
                raise ValueError(
                    "relation %s is not a member of the numerator" % g)
        self.numer = numer
        self.rels = rels

    @property
    def ambient(self):
        return self.numer.ring

    @property
    def gens(self):
        return self.numer.gens

    def nf(self, p):
        return self.rels.normal_form(p)

    def dims(self, D):
        return subquotient_dims(self.numer, self.rels, D)

    def __repr__(self):
        return "Subquotient(gens=%s; rels=%d)" % (
            [str(g) for g in self.gens], len(self.rels.gens))
