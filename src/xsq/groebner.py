"""Groebner engine: reduced bases, normal forms, elimination, intersections,
kernels of ring maps, cofactor lifting, syzygies and affine Hilbert data.

Buchberger's algorithm with the Gebauer-Moller pair criteria ("On an
installation of Buchberger's algorithm", J. Symb. Comp. 1988) and the normal
selection strategy; every basis is reduced (monic, auto-reduced, sorted by
leading monomial), hence canonical for its order.  All entry points accept a
step budget, which counts the S-pairs reduced plus the reduction steps, and
raise :class:`BudgetExceeded` instead of silently truncating.

The input generators are inserted lazily: each waits in the pair queue
under its leading monomial and, when popped, is reduced against the basis
so far like an S-polynomial, so a redundant generator never becomes a basis
element or forms pairs.  The reduced basis is the same for any insertion
order.  The cofactor rows that :meth:`Ideal.lift` and :func:`syzygies` read
are not unique, and printed relations depend on them, so the tracked path
keeps every generator as a basis element from the start.  Division reduces
one mutable term dict in place and computes each monomial's order key once
per call.

An elimination result (also of :func:`ideal_intersect` and :func:`hom_kernel`)
carries the reduced basis it was read from, as its generators and cached.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice

from .rings import Polynomial, PolyRing, RingHom, fresh_names

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    def __init__(self, steps):
        super().__init__("step budget of %d reductions exceeded" % steps)
        self.steps = steps


class NotInIdeal(ValueError):
    pass


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def _mono_sub(a, b):
    """Exponent vector a - b."""
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_mul_poly(ring, mono, coeff, p):
    return Polynomial(ring, {tuple(m + e for m, e in zip(mono, t)): c * coeff
                             for t, c in p.terms.items()})


class _Budget:
    __slots__ = ("left", "limit")

    def __init__(self, limit):
        self.left = limit
        self.limit = limit

    def spend(self, n=1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded(self.limit)


def _divide(p, basis, budget, want_quotients=True):
    """Multivariate division: p = sum(q_i * basis_i) + r with no monomial of
    r divisible by any leading monomial of the basis.  Deterministic: the
    first divisor in list order wins, and every term taken off the dividend
    costs one budget step.

    The dividend is reduced in place as a term dict, and the order key of
    each monomial is computed once, when the monomial first appears."""
    ring = p.ring
    key = ring.mono_key
    h = dict(p.terms)
    keys = {m: key(m) for m in h}
    leads = [b.leading() for b in basis]
    quots = [{} for _ in basis] if want_quotients else None
    rem = {}
    while h:
        m = max(h, key=keys.__getitem__)
        c = h.pop(m)
        budget.spend()
        for i, (bm, bc) in enumerate(leads):
            if mono_divides(bm, m):
                t = _mono_sub(m, bm)
                f = c / bc
                neg = -f
                # the reducer's tail; its sorted terms are cached on it
                for tm, tc in islice(basis[i].sorted_terms(), 1, None):
                    n = tuple(x + y for x, y in zip(t, tm))
                    v = h.get(n)
                    if v is None:
                        h[n] = neg * tc
                        if n not in keys:
                            keys[n] = key(n)
                    else:
                        v = v + neg * tc
                        if v:
                            h[n] = v
                        else:
                            del h[n]
                if want_quotients:
                    quots[i][t] = f  # each t once: lm(h) only falls
                break
        else:
            rem[m] = c
    if want_quotients:
        quots = [Polynomial(ring, q) for q in quots]
    return quots, Polynomial(ring, rem)


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_mono(ring, mono, coeff, v):
    return tuple(_mono_mul_poly(ring, mono, coeff, p) for p in v)


def _vec_scalar(c, v):
    return tuple(p * c for p in v)


def _vec_poly(q, v):
    return tuple(q * p for p in v)


def _buchberger(gens, ring, budget, track=False):
    """Reduced Groebner basis, optionally with cofactor rows.

    Returns (basis, rows) with basis[i] = sum_j rows[i][j] * gens[j] when
    track is set (rows is None otherwise); the basis is monic, auto-reduced
    and sorted ascending by leading monomial.

    Critical pairs are kept by the Gebauer-Moller update (``_update``) and
    reduced in the normal strategy, smallest lcm first.  Untracked, each
    generator is queued under its leading monomial (before the pairs with
    that lcm) and joins the basis only if its remainder on popping is
    nonzero.  Tracked, every generator joins up front.  Every element stays
    in the reducer list, so the cofactor rows index all of them.
    """
    k = len(gens)
    one = ring.field.one
    key = ring.mono_key

    G, lms, rows = [], [], ([] if track else None)
    pairs, active, heap = {}, [], []
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        if not track:  # queued by leading monomial, reduced when popped
            heapq.heappush(heap, (key(g.lm()), -1, i))
            continue
        row = [ring.zero] * k
        row[i] = ring.const(one / g.lc())
        rows.append(tuple(row))
        G.append(g.monic())
        lms.append(G[-1].lm())
        _update(len(G) - 1, lms, active, pairs, heap, key)
    while heap:
        _, i, j = heapq.heappop(heap)  # normal strategy: smallest lcm first
        if i < 0:
            s = gens[j]
        else:
            lcm = pairs.pop((i, j), None)
            if lcm is None:
                continue  # dropped by a later update
            budget.spend()
            a, b = _mono_sub(lcm, lms[i]), _mono_sub(lcm, lms[j])
            s = (_mono_mul_poly(ring, a, one, G[i])
                 - _mono_mul_poly(ring, b, one, G[j]))
        quots, rem = _divide(s, G, budget, want_quotients=track)
        if rem.is_zero():
            continue
        inv = one / rem.lc()
        if track:
            srow = _vec_add(_vec_mono(ring, a, one, rows[i]),
                            _vec_mono(ring, b, -one, rows[j]))
            for t, q in enumerate(quots):
                if not q.is_zero():
                    srow = _vec_add(srow, _vec_scalar(-one, _vec_poly(q, rows[t])))
            rows.append(_vec_scalar(inv, srow))
        G.append(rem * inv)
        lms.append(G[-1].lm())
        _update(len(G) - 1, lms, active, pairs, heap, key)

    return _reduce_basis(G, rows, ring, budget)


def _update(n, lms, active, pairs, heap, key):
    """Gebauer-Moller update for the new element n.

    The new pairs (t, n) for the active t keep only the minimal lcms, one
    pair per lcm (the smallest t), and none whose lcm is also that of a
    coprime pair.  A queued pair (i, j) is dropped when lm(n) divides its
    lcm and that lcm differs from both lcm(i, n) and lcm(j, n).  Active
    elements whose leading monomial lm(n) divides stop forming pairs."""
    lm_n = lms[n]
    for (i, j), lcm in list(pairs.items()):
        if (mono_divides(lm_n, lcm) and _mono_lcm(lms[i], lm_n) != lcm
                and _mono_lcm(lms[j], lm_n) != lcm):
            del pairs[(i, j)]
    first, coprime = {}, set()  # lcm -> smallest t; lcms of coprime pairs
    for t in active:
        lcm = _mono_lcm(lms[t], lm_n)
        first.setdefault(lcm, t)
        if lcm == tuple(a + b for a, b in zip(lms[t], lm_n)):
            coprime.add(lcm)
    for lcm, t in first.items():
        if lcm in coprime or any(o != lcm and mono_divides(o, lcm)
                                 for o in first):
            continue
        pairs[(t, n)] = lcm
        heapq.heappush(heap, (key(lcm), t, n))
    active[:] = [t for t in active if not mono_divides(lm_n, lms[t])]
    active.append(n)


def _reduce_basis(G, rows, ring, budget):
    """Minimalize and tail-reduce; canonical output order."""
    one = ring.field.one
    track = rows is not None
    order = sorted(range(len(G)), key=lambda i: (ring.mono_key(G[i].lm()), i))
    keep = []
    for i in order:
        lm = G[i].lm()
        if any(mono_divides(G[j].lm(), lm) for j in keep):
            continue
        keep.append(i)
    basis = [G[i] for i in keep]
    brows = [rows[i] for i in keep] if track else None
    out, out_rows = [], ([] if track else None)
    for idx in range(len(basis)):
        others = [b for t, b in enumerate(basis) if t != idx]
        quots, rem = _divide(basis[idx], others, budget, want_quotients=track)
        if rem.is_zero():
            continue
        inv = one / rem.lc()
        if track:
            row = brows[idx]
            qi = 0
            for t in range(len(basis)):
                if t == idx:
                    continue
                q = quots[qi]
                qi += 1
                if not q.is_zero():
                    row = _vec_add(row, _vec_scalar(-one, _vec_poly(q, brows[t])))
            out_rows.append(_vec_scalar(inv, row))
        out.append(rem * inv)
    ranks = sorted(range(len(out)), key=lambda i: ring.mono_key(out[i].lm()))
    basis = [out[i] for i in ranks]
    return basis, ([out_rows[i] for i in ranks] if track else None)


def _reringed(p, ring):
    return Polynomial(ring, p.terms)


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

    def _computed(self, order=None, budget=None, track=False):
        """(work ring, basis, rows) for the requested order; rows only when
        cofactor tracking was requested at some point."""
        tag = self.ring.order if order is None else order
        hit = self._cache.get(tag)
        if hit is None or (track and hit[2] is None):
            work = self.ring if tag == self.ring.order else self.ring.with_order(tag)
            gens = [_reringed(g, work) for g in self.gens]
            basis, rows = _buchberger(gens, work,
                                      _Budget(budget or DEFAULT_BUDGET),
                                      track=track)
            self._cache[tag] = (work, tuple(basis),
                                tuple(rows) if rows is not None else None)
        return self._cache[tag]

    def groebner(self, order=None, budget=None):
        """Reduced basis, unique for (ideal, order), as ring elements."""
        work, basis, _ = self._computed(order, budget)
        return tuple(_reringed(b, self.ring) for b in basis)

    def normal_form(self, p, order=None, budget=None):
        if p.ring != self.ring:
            raise ValueError("polynomial not in the ideal's ring")
        work, basis, _ = self._computed(order, budget)
        _, rem = _divide(_reringed(p, work), list(basis),
                         _Budget(budget or DEFAULT_BUDGET),
                         want_quotients=False)
        return _reringed(rem, self.ring)

    def member(self, p, order=None, budget=None):
        return self.normal_form(p, order, budget).is_zero()

    def lift(self, p, budget=None):
        """Cofactors against the original generators; exact identity
        sum(c_i * gens_i) == p, or :class:`NotInIdeal`."""
        work, basis, rows = self._computed(None, budget, track=True)
        quots, rem = _divide(_reringed(p, work), list(basis),
                             _Budget(budget or DEFAULT_BUDGET))
        if not rem.is_zero():
            raise NotInIdeal("polynomial is not a member: residue %s" % rem)
        cof = [work.zero] * len(self.gens)
        for q, row in zip(quots, rows):
            if q.is_zero():
                continue
            for j, rj in enumerate(row):
                if not rj.is_zero():
                    cof[j] = cof[j] + q * rj
        cof = tuple(_reringed(c, self.ring) for c in cof)
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


def ideal_equal(I, J, budget=None):
    if I.ring != J.ring:
        raise ValueError("ideal comparison needs a common ring")
    return I.groebner(budget=budget) == J.groebner(budget=budget)


def ideal_product(I, J):
    return Ideal(I.ring, [a * b for a in I.gens for b in J.gens])


def _project(p, target):
    """Rewrite p in a ring on a subset of its variables (which must cover
    the support)."""
    src = p.ring
    pos = [src._index[v] for v in target.vars]
    out = {}
    for m, c in p.terms.items():
        if sum(m) != sum(m[i] for i in pos):
            raise ValueError("polynomial %s uses dropped variables" % p)
        out[tuple(m[i] for i in pos)] = c
    return Polynomial(target, out)


def eliminate(I, drop, budget=None):
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
        return Ideal(target, [_project(g, target) for g in I.gens])
    if I.is_zero():
        return Ideal(target, [])
    weights = tuple(ring.weights[ring._index[v]] for v in drop + keep)
    work = PolyRing(tuple(drop + keep), ring.field, weights,
                    ("block", len(drop)))
    to_work = RingHom.from_map(ring, work, {})
    basis = Ideal(work, [to_work(g) for g in I.gens]).groebner(budget=budget)
    # the elements with leading monomial free of the block lie in the subring
    # and are its reduced basis for the inner order, the target's order
    kept = tuple(_project(b, target) for b in basis
                 if not any(b.lm()[:len(drop)]))
    K = Ideal(target, kept)
    K._cache[target.order] = (target, kept, None)
    return K


def ideal_intersect(I, J, budget=None):
    """Tag-variable trick: eliminate t from t*I + (1-t)*J."""
    ring = I.ring
    if J.ring != ring:
        raise ValueError("intersection needs a common ring")
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    tag = fresh_names(["t__"], ring.vars)[0]
    work = PolyRing((tag,) + ring.vars, ring.field, (1,) + ring.weights,
                    ("block", 1))
    emb = RingHom.from_map(ring, work, {})
    t = work.var(tag)
    gens = [t * emb(g) for g in I.gens]
    gens += [(work.one - t) * emb(h) for h in J.gens]
    K = eliminate(Ideal(work, gens), [tag], budget=budget)
    if K.ring == ring:  # every wdegrevlex ring: K and its seeded basis
        return K
    return Ideal(ring, [_reringed(g, ring) for g in K.gens])


def hom_kernel(h, budget=None):
    """Kernel of a ring map as an ideal of the domain, via the graph ideal
    and elimination of (tagged copies of) the codomain variables."""
    dom, cod = h.domain, h.codomain
    tags = fresh_names(["k__" + v for v in cod.vars], dom.vars)
    work = PolyRing(tuple(tags) + dom.vars, dom.field,
                    cod.weights + dom.weights, ("block", len(tags)))
    cod_emb = RingHom(cod, work, tuple(work.var(t) for t in tags))
    dom_emb = RingHom.from_map(dom, work, {})
    graph = [dom_emb(dom.var(v)) - cod_emb(h(dom.var(v))) for v in dom.vars]
    K = eliminate(Ideal(work, graph), tags, budget=budget)
    if K.ring == dom:  # every wdegrevlex ring: K and its seeded basis
        return K
    return Ideal(dom, [_reringed(g, dom) for g in K.gens])


def syzygies(gens, ring=None, budget=None):
    """Generating set of {v : sum(v_i * g_i) = 0} as tuples of polynomials.

    Schreyer-style: the syzygies of the reduced basis coming from all
    S-pair reductions, pulled back through the two conversion matrices,
    plus the identity-defect rows."""
    if isinstance(gens, Ideal):
        ring = gens.ring
        gens = gens.gens
    gens = tuple(gens)
    if ring is None:
        if not gens:
            raise ValueError("need a ring for an empty generator tuple")
        ring = gens[0].ring
    k = len(gens)
    if k == 0:
        return ()
    one = ring.field.one
    bud = _Budget(budget or DEFAULT_BUDGET)
    nonzero = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    basis, rows = _buchberger([g for _, g in nonzero], ring, bud, track=True)

    def widen(v):
        out = [ring.zero] * k
        for (orig, _), p in zip(nonzero, v):
            out[orig] = p
        return tuple(out)

    rows = [widen(r) for r in rows]
    syz = []
    for i, g in enumerate(gens):
        if g.is_zero():
            e = [ring.zero] * k
            e[i] = ring.one
            syz.append(tuple(e))
    m = len(basis)
    # S-pair syzygies of the reduced basis; no pair is skipped here
    for i in range(m):
        for j in range(i + 1, m):
            lcm = _mono_lcm(basis[i].lm(), basis[j].lm())
            a = _mono_sub(lcm, basis[i].lm())
            b = _mono_sub(lcm, basis[j].lm())
            s = _mono_mul_poly(ring, a, one, basis[i]) \
                - _mono_mul_poly(ring, b, one, basis[j])
            quots, rem = _divide(s, basis, bud)
            if not rem.is_zero():
                raise AssertionError("S-polynomial of a basis did not vanish")
            v = _vec_add(_vec_mono(ring, a, one, rows[i]),
                         _vec_mono(ring, b, -one, rows[j]))
            for t, q in enumerate(quots):
                if not q.is_zero():
                    v = _vec_add(v, _vec_scalar(-one, _vec_poly(q, rows[t])))
            syz.append(v)
    # identity defects: e_j minus the expansion of g_j through the basis
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        quots, rem = _divide(g, basis, bud)
        if not rem.is_zero():
            raise AssertionError("generator did not reduce to zero")
        v = [ring.zero] * k
        v[j] = ring.one
        v = tuple(v)
        for t, q in enumerate(quots):
            if not q.is_zero():
                v = _vec_add(v, _vec_scalar(-one, _vec_poly(q, rows[t])))
        syz.append(v)
    out = []
    for v in syz:
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


@dataclass(frozen=True)
class GradedDims:
    """Dimensions of the degree-filtered pieces, index d = 0..D."""

    dims: tuple

    @property
    def max_degree(self):
        return len(self.dims) - 1

    def __getitem__(self, d):
        return self.dims[d]

    def as_list(self):
        return list(self.dims)

    def __str__(self):
        return "[" + ", ".join(str(d) for d in self.dims) + "]"


def monomials_leq(ring, D):
    """All exponent tuples of weighted degree <= D, descending ring order."""
    n = len(ring.vars)
    out = []

    def rec(i, left, acc):
        if i == n:
            out.append(tuple(acc))
            return
        w = ring.weights[i]
        for e in range(left // w + 1):
            acc.append(e)
            rec(i + 1, left - e * w, acc)
            acc.pop()

    rec(0, D, [])
    out.sort(key=ring.mono_key, reverse=True)
    return out


def affine_hilbert(I, D, budget=None):
    """Dimension of {p : wdeg p <= d} / (I cap same) for d = 0..D, read off
    the leading-term data of a degree-compatible basis."""
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    basis = I.groebner(order="wdegrevlex", budget=budget)
    work = I.ring if I.ring.order == "wdegrevlex" \
        else I.ring.with_order("wdegrevlex")
    lts = [_reringed(b, work).lm() for b in basis]
    counts = [0] * (D + 1)
    for m in monomials_leq(work, D):
        if any(mono_divides(lt, m) for lt in lts):
            continue
        counts[work.wdeg(m)] += 1
    dims, total = [], 0
    for d in range(D + 1):
        total += counts[d]
        dims.append(total)
    return GradedDims(tuple(dims))


def subquotient_dims(numer, rels, D, budget=None):
    """Filtered dimensions of numer/rels for nested ideals rels <= numer."""
    hn = affine_hilbert(numer, D, budget=budget)
    hr = affine_hilbert(rels, D, budget=budget)
    return GradedDims(tuple(hr[d] - hn[d] for d in range(D + 1)))
