"""Differential tests of the Groebner engine against the linear-algebra
oracle, on small weight-homogeneous ideals over Q and GF(32003); of the
bases that elimination results carry against bases computed afresh; of the
tracked and untracked runs on one generator list; and of division
against a plain reference division.  Products past the exponent limit must
raise, and the tracked path is asked for by keyword only."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from xsq import (GF, QQ, BudgetExceeded, Ideal, PolyRing, Polynomial,
                 RingHom, budget, eliminate, hom_kernel, ideal_intersect,
                 peiffer_P2, syzygies)
from xsq import groebner
from xsq.rings import MAX_EXPONENT, ExponentOverflow

from .oracle import MacaulayNF, divides, mono_key, monomials_upto, wdeg

FIELDS = (QQ, GF(32003))


def lead(p):
    """(exponent tuple, coefficient) of the leading term of p."""
    return next(iter(p.exponent_terms().items()))


def lm(p):
    return lead(p)[0]


@st.composite
def homogeneous_ideals(draw):
    """(ring, generators, multipliers): 2-3 variables of weight 1-2, one to
    three weight-homogeneous generators of degree 1-4, and for each
    generator a monomial multiplier of degree at most 2."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    ring = PolyRing(("x", "y", "z")[:n], field, weights)
    gens, mults = [], []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 4))
        monos = [m for m in monomials_upto(ring, d) if wdeg(ring, m) == d]
        if not monos:
            continue
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1,
                               max_size=3, unique=True))
        g = ring.zero
        for m in chosen:
            g = g + ring.monomial(m, draw(st.integers(-5, 5).filter(bool)))
        gens.append(g)
        mults.append(ring.monomial(draw(st.sampled_from(
            monomials_upto(ring, 2)))))
    return ring, gens, mults


def _polys(draw, ring, min_size, max_size, terms, exp):
    """min_size to max_size polynomials of one to `terms` terms, exponents
    up to exp and coefficients in -3..3."""
    monos = st.tuples(*[st.integers(0, exp)] * len(ring.vars))
    out = []
    for poly in draw(st.lists(st.dictionaries(
            monos, st.integers(-3, 3).filter(bool), min_size=1,
            max_size=terms), min_size=min_size, max_size=max_size)):
        g = ring.zero
        for m, c in sorted(poly.items()):
            g = g + ring.monomial(m, c)
        out.append(g)
    return out


@st.composite
def small_ideals(draw):
    """(ring, generators): 2-3 variables, degrevlex or lex, two to four
    generators of up to three terms each, not homogeneous in general."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 3))
    order = draw(st.sampled_from(("wdegrevlex", "lex")))
    ring = PolyRing(("x", "y", "z")[:n], field, order=order)
    return ring, _polys(draw, ring, 2, 4, 3, 3)


@st.composite
def elimination_cases(draw):
    """(I, J, drop, h): two ideals of one ring in 2-3 weighted variables,
    wdegrevlex or lex, with generators of up to three terms; a nonempty
    proper subset of the variables; and a map into that ring from a ring
    of the same order on two variables, with images of up to two terms."""
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from(("wdegrevlex", "lex")))
    n = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    ring = PolyRing(("x", "y", "z")[:n], field, weights, order)
    I = Ideal(ring, _polys(draw, ring, 2, 4, 3, 2))
    J = Ideal(ring, _polys(draw, ring, 1, 3, 3, 2))
    drop = draw(st.lists(st.sampled_from(ring.vars), min_size=1,
                         max_size=n - 1, unique=True))
    h = RingHom(PolyRing(("a", "b"), field, order=order), ring,
                _polys(draw, ring, 2, 2, 2, 2))
    return I, J, drop, h


@settings(max_examples=100, deadline=None, derandomize=True)
@given(elimination_cases())
def test_elimination_results_carry_their_reduced_basis(case):
    # in a wdegrevlex ring the result holds, as its generators and as its
    # cached basis, the basis a fresh ideal on those generators computes;
    # a result in a lex ring holds no basis
    I, J, drop, h = case
    for K in (eliminate(I, drop), ideal_intersect(I, J), hom_kernel(h)):
        if K.ring.order != "wdegrevlex":
            assert not K._cache
            continue
        assert K.ring.order in K._cache
        fresh = Ideal(K.ring, K.gens).groebner()
        assert K.groebner() == fresh and K.gens == fresh


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("names, gens", [
    ("t x y", ["t*x", "y - t*y"]),                  # (x) cap (y) by a tag
    ("t x y", ["x - t^2", "y - 5*t^3"]),            # a parametrized curve
    ("s t x y z", ["x - s^2", "y - 3*s*t", "z - t^2"]),
])
def test_eliminate_seeds_the_basis_a_fresh_ideal_computes(field, names,
                                                          gens):
    # the leading block is t, or s and t; its basis has elements with and
    # without them in the leading monomial, and eliminate must keep
    # exactly the second kind, by the cached leading monomials
    ring = PolyRing(names.split(), field)
    I = Ideal(ring, gens)
    drop = [v for v in ring.vars if v in "st"]
    work, _, _, _, lms = I._computed(("block", len(drop)))
    block = work.packing.mask(range(len(drop)))
    assert any(lm & block for lm in lms)
    assert not all(lm & block for lm in lms)
    K = eliminate(I, drop)
    _, seeded, _, seeded_reducers, seeded_lms = K._cache[K.ring.order]
    _, basis, _, reducers, lms = Ideal(K.ring, K.gens)._computed()
    assert seeded == basis and seeded_lms == lms
    assert list(seeded_reducers) == list(reducers)


@st.composite
def ordered_rings(draw):
    """A ring on 2-3 variables of weight 1-2 over Q or GF(32003), in
    wdegrevlex, lex or a block order with a leading block of 1 to n-1
    variables."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    order = draw(st.sampled_from(
        ["wdegrevlex", "lex"] + [("block", k) for k in range(1, n)]))
    return PolyRing(("x", "y", "z")[:n], field, weights, order)


@st.composite
def redundant_generators(draw):
    """(ring, generators): one to three generators of up to three terms,
    followed by up to six redundant ones, each made from those before it:
    a scalar multiple, a duplicate, a sum of two, a monomial multiple, or a
    combination of two with monomial multipliers (which reduces to zero
    once both are in the basis); then shuffled."""
    ring = draw(ordered_rings())
    gens = _polys(draw, ring, 1, 3, 3, 2)
    pick = st.integers(0, 10**6)
    for kind in draw(st.lists(st.sampled_from(
            ["scale", "dup", "sum", "mono", "combo"]), max_size=6)):
        f = gens[draw(pick) % len(gens)]
        g = gens[draw(pick) % len(gens)]
        mono = ring.monomial(draw(st.tuples(
            *[st.integers(0, 1)] * len(ring.vars))))
        c = draw(st.integers(-3, 3).filter(bool))
        gens.append({"scale": f * c, "dup": f, "sum": f + g,
                     "mono": mono * f, "combo": mono * f + g * c}[kind])
    order = draw(st.permutations(range(len(gens))))
    return ring, [gens[i] for i in order]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(redundant_generators())
def test_tracked_and_untracked_runs_take_the_same_steps(case):
    # every generator waits in the queue and joins only as a nonzero
    # remainder, so a run that keeps cofactor rows hands _reduce_basis the
    # elements of a run that does not, after the same steps; the basis must
    # equal that of the reversed list, every element must join reduced
    # against the elements before it, and each row times the generators
    # must give its basis element
    ring, gens = case
    joined = []
    reduce_basis = groebner._reduce_basis

    def recording(G, rows, ring):
        joined.append([groebner._polynomial(ring, g) for g in G])
        return reduce_basis(G, rows, ring)

    bases, steps = [], []
    with mock.patch.object(groebner, "_reduce_basis", recording):
        for track in (False, True):
            ideal = Ideal(ring, gens)
            with budget(10**9) as counter:
                _, basis, rows = ideal._computed(track=track)[:3]
            bases.append(basis)
            steps.append(counter.limit - counter.left)
    backwards = Ideal(ring, gens[::-1])._computed()[1]
    assert joined[0] == joined[1] and steps[0] == steps[1]
    assert bases[0] == bases[1] == backwards
    assert _is_reduced(basis)
    for n, g in enumerate(joined[0]):
        assert not any(divides(lm(b), t)
                       for b in joined[0][:n] for t in g.exponent_terms())
    for b, row in zip(basis, rows):  # the tracked run's
        total = ring.zero
        for c, g in zip(row, ideal.gens):
            total = total + Polynomial(ring, c) * g
        assert total == b


def _reference_divide(p, basis):
    """Division on immutable polynomials: each step takes the leading term
    of what is left and subtracts a multiple of the first reducer whose
    leading monomial divides it, or moves the term to the remainder.
    Returns (quotients, remainder, steps)."""
    ring = p.ring
    quots = [ring.zero] * len(basis)
    rem, h, steps = ring.zero, p, 0
    while not h.is_zero():
        m, c = lead(h)
        steps += 1
        term = ring.monomial(m, c)
        for i, b in enumerate(basis):
            bm, bc = lead(b)
            if divides(bm, m):
                # the field's exact inverse; over GF(p) the product is
                # reduced by ring.monomial, which coerces its coefficient
                q = ring.monomial([x - y for x, y in zip(m, bm)],
                                  c * ring.field.inv(bc))
                h = h - q * b
                quots[i] = quots[i] + q
                break
        else:
            rem = rem + term
            h = h - term
    return quots, rem, steps


def _divide(p, basis, want_quotients=True):
    """groebner._divide on polynomials: the dividend and the reducers as
    descending packed terms, the quotients and the remainder as
    polynomials."""
    ring = p.ring
    quots, rem = groebner._divide(
        *groebner._dividend(groebner._terms(p)),
        [groebner._terms(b) for b in basis],
        ring.packing.guards, ring.field.char, want_quotients)
    if quots is not None:
        quots = [Polynomial(ring, q) for q in quots]
    return quots, groebner._polynomial(ring, rem)


@st.composite
def division_cases(draw):
    """(dividend, reducers): a dividend of up to eight terms and one to
    four monic reducers of up to three terms, with coefficients other than
    one and exponents up to 3, so that leading monomials often coincide or
    divide each other.  The engine divides only by monic reducers."""
    ring = draw(ordered_rings())
    (p,) = _polys(draw, ring, 1, 1, 8, 3)
    return p, [b * ring.field.inv(b.terms[max(b.terms, key=ring.packing.key)])
               for b in _polys(draw, ring, 1, 4, 3, 2)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(division_cases())
def test_division_matches_the_reference(case):
    p, basis = case
    with budget(10**6) as counter:
        quots, rem = _divide(p, basis)
    steps = counter.limit - counter.left
    total = rem
    for q, b in zip(quots, basis):
        total = total + q * b
    assert total == p
    assert not any(divides(lm(b), t) for b in basis
                   for t in rem.exponent_terms())
    ref_quots, ref_rem, ref_steps = _reference_divide(p, basis)
    assert list(quots) == ref_quots and rem == ref_rem
    assert steps == ref_steps
    # the budget is spent one step per term: the exact count fits, one
    # less raises, and skipping the quotients changes neither
    with budget(steps):
        _, rem_only = _divide(p, basis, want_quotients=False)
    assert rem_only == rem
    with pytest.raises(BudgetExceeded), budget(steps - 1):
        _divide(p, basis)


def _is_reduced(basis):
    lms = [lm(b) for b in basis]
    for i, b in enumerate(basis):
        if lead(b)[1] != b.ring.field.one:
            return False
        for t in b.exponent_terms():
            if any(j != i and divides(lm, t) for j, lm in enumerate(lms)):
                return False
    keys = [mono_key(basis[0].ring, m) for m in lms]
    return keys == sorted(keys)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(homogeneous_ideals())
def test_basis_is_monic_and_reduced(case):
    ring, gens, _ = case
    assert _is_reduced(Ideal(ring, gens).groebner())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(homogeneous_ideals())
def test_normal_forms_match_macaulay_oracle(case):
    ring, gens, _ = case
    I = Ideal(ring, gens)
    D = min(6, max((g.wdeg() for g in gens), default=0) + 2)
    oracle = MacaulayNF(I.gens, ring, D)
    for m in monomials_upto(ring, D):
        p = ring.monomial(m)
        assert I.normal_form(p) == oracle.nf(p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(homogeneous_ideals())
def test_lift_reproduces_its_input(case):
    ring, gens, mults = case
    I = Ideal(ring, gens)
    combo = ring.zero
    for c, g in zip(mults, gens):
        combo = combo + c * g
    for p in (combo,) + I.groebner():
        cof = I.lift(p)
        total = ring.zero
        for c, g in zip(cof, I.gens):
            total = total + c * g
        assert total == p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(homogeneous_ideals())
def test_syzygies_annihilate_the_generators(case):
    ring, gens, _ = case
    for v in syzygies(gens, ring=ring):
        total = ring.zero
        for p, g in zip(v, gens):
            total = total + p * g
        assert total.is_zero()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_ideals())
def test_basis_passes_buchberger_criterion(case):
    # every generator and every S-polynomial of the basis reduces to zero
    ring, gens = case
    I = Ideal(ring, gens)
    basis = I.groebner()
    assert _is_reduced(basis)
    assert all(I.member(g) for g in gens)
    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            lcm = tuple(max(a, b) for a, b in zip(lm(f), lm(g)))
            s = (ring.monomial([a - b for a, b in zip(lcm, lm(f))]) * f
                 - ring.monomial([a - b for a, b in zip(lcm, lm(g))]) * g)
            assert I.member(s)


def test_second_order_peiffer_basis_fits_a_small_budget(skel_c):
    # 85 generators; the pair criteria leave a few hundred steps of work
    I = peiffer_P2(skel_c)
    assert len(I.gens) == 85
    try:
        with budget(5000):
            basis = I.groebner()
    except BudgetExceeded:
        pytest.fail("P2 basis of fixture c needs more than 5000 steps")
    assert len(basis) == 17


def test_products_past_the_exponent_limit_raise():
    # x - y^L leads with x in lex; reducing x*y by it, and its S-polynomial
    # with x*y, both form y^(L + 1), one past the limit
    ring = PolyRing(("x", "y"), order="lex")
    x, y = ring.gens()
    big = ring.monomial((0, MAX_EXPONENT))
    I = Ideal(ring, [x - big])
    assert I.normal_form(x + y) == big + y
    with pytest.raises(ExponentOverflow):
        I.normal_form(x * y)
    for track in (False, True):
        with pytest.raises(ExponentOverflow) as e:
            Ideal(ring, [x - big, x * y])._computed(track=track)
        assert isinstance(e.value, BudgetExceeded)
        assert "limit of %d" % MAX_EXPONENT in str(e.value)


def test_track_is_keyword_only():
    # a wrapper of _computed reads track from the keywords, so a positional
    # track must not reach the engine
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    with pytest.raises(TypeError):
        Ideal(ring, [x * y, x ** 2 - y])._computed("wdegrevlex", True)
