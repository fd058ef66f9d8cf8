import itertools
from pathlib import Path
from unittest import mock

import pytest

from xsq import cli, groebner
from xsq import (GF, QQ, BudgetExceeded, Ideal, NotInIdeal, PolyRing,
                 RingHom, Subquotient, affine_hilbert, budget, eliminate,
                 hom_kernel, ideal_intersect, syzygies)

from .oracle import (MacaulayNF, ideal_equal, monomials_upto,
                     truncated_module_kernel, vector_to_coords)


@pytest.fixture(scope="module")
def R():
    return PolyRing(["x", "y"])


def test_basis_already_reduced(R):
    I = Ideal(R, ["x^2", "x*y"])
    assert [str(g) for g in I.groebner()] == ["x*y", "x^2"]
    # idempotent: recomputing from the basis returns the basis
    J = Ideal(R, I.groebner())
    assert J.groebner() == I.groebner()


def test_basis_of_zero_ideal(R):
    assert Ideal(R, []).groebner() == ()
    assert Ideal(R, [R.zero]).groebner() == ()


def test_basis_substitution_example():
    RS = PolyRing(["x", "S"], weights=(1, 2))
    I = Ideal(RS, ["S - x^2", "S"])
    assert set(str(g) for g in I.groebner()) == {"x^2", "S"}


def test_reduced_basis_unique_under_shuffle(R):
    gens = [R.parse(t) for t in
            ("x^3 - y", "x*y^2 + x", "y^3 - 2*x^2", "x^2*y - 1")]
    reference = Ideal(R, gens).groebner()
    for perm in itertools.permutations(gens):
        assert Ideal(R, list(perm)).groebner() == reference


def test_normal_form_examples(R):
    RS = PolyRing(["x", "S"], weights=(1, 2))
    P1 = Ideal(RS, ["S^2 - x^2*S"])
    assert P1.normal_form(RS.parse("S^2 - x^2*S")).is_zero()
    assert not Ideal(R, ["x"]).member(R.one)
    p = R.parse("x^2*y - 3")
    assert Ideal(R, []).normal_form(p) == p


def test_normal_form_against_macaulay_oracle(R):
    I = Ideal(R, ["x^2 - y^2", "x*y"])
    oracle = MacaulayNF(I.gens, R, 6)
    for m in monomials_upto(R, 6):
        p = R.monomial(m)
        assert I.normal_form(p) == oracle.nf(p)


def test_lift_cofactor_examples(R):
    I = Ideal(R, ["x^2", "x*y"])
    cofs = I.lift(R.parse("x^3"))
    assert cofs[0] == R.parse("x") and cofs[1].is_zero()
    assert I.lift(R.zero) == (R.zero, R.zero)
    p = R.parse("x^3 + x^2*y")
    cofs = I.lift(p)
    assert cofs[0] * I.gens[0] + cofs[1] * I.gens[1] == p
    with pytest.raises(NotInIdeal):
        I.lift(R.parse("y"))


@pytest.mark.parametrize("other,text", [
    (PolyRing(["x", "y"], order="lex"), "x*y"),
    (PolyRing(["x", "y", "z"]), "x*y"),
    (PolyRing(["x"]), "x^2")], ids=["lex", "extra-variable", "x-only"])
def test_lift_and_normal_form_refuse_another_ring(R, other, text):
    I = Ideal(R, ["x"])
    p = other.parse(text)
    with pytest.raises(ValueError):
        I.lift(p)
    with pytest.raises(ValueError):
        I.normal_form(p)


def test_membership_lift_consistency(R):
    I = Ideal(R, ["x^2 - y", "y^3"])
    for text in ("x^2 - y", "y^3 + x^2 - y", "(x^2 - y)*(x + y)"):
        p = R.parse(text)
        assert I.member(p)
        cofs = I.lift(p)
        recon = R.zero
        for c, g in zip(cofs, I.gens):
            recon = recon + c * g
        assert recon == p


def test_eliminate_substitution(R):
    I = Ideal(R, ["y - x^2", "y"])
    J = eliminate(I, ["y"])
    assert [str(g) for g in J.groebner()] == ["x^2"]
    assert eliminate(Ideal(R, []), ["y"]).is_zero()


def test_intersect_examples(R):
    J = ideal_intersect(Ideal(R, ["x"]), Ideal(R, ["y"]))
    assert [str(g) for g in J.groebner()] == ["x*y"]
    I = Ideal(R, ["x^2", "x*y"])
    assert ideal_equal(ideal_intersect(I, I), I)


def test_intersect_soundness(R):
    I = Ideal(R, ["x^2 - y", "x*y^2"])
    J = Ideal(R, ["y^2", "x + y"])
    K = ideal_intersect(I, J)
    for g in K.gens:
        assert I.member(g) and J.member(g)
    for a in I.gens:
        for b in J.gens:
            assert K.member(a * b)


def test_hom_kernel_examples(skel_a):
    ne1 = hom_kernel(skel_a.face[(1, 0)])
    assert [str(g) for g in ne1.groebner()] == ["S"]
    kbar = hom_kernel(skel_a.face[(1, 1)])
    E1 = skel_a.E1
    assert ideal_equal(kbar, Ideal(E1, ["S - x^2"]))
    ident = RingHom.identity(E1)
    assert hom_kernel(ident).is_zero()


def test_moore_intersection_matches_kernel_route(skel_a):
    # the level-2 kernel computed by intersection agrees with the one
    # computed from the single combined kernel condition
    E2 = skel_a.E2
    m = skel_a.moore()
    expected = Ideal(E2, ["s1_S * (s0_S - s1_S)"])
    assert ideal_equal(m.ne2, expected)


def test_syzygies_examples(R):
    basis = syzygies((R.parse("x^2"), R.parse("x*y")), ring=R)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * R.parse("x^2") + v[1] * R.parse("x*y") == R.zero
    assert syzygies((R.parse("x"),), ring=R) == ()
    double = syzygies((R.var("x"), R.var("x")), ring=R)
    assert len(double) == 1
    assert [str(p) for p in double[0]] in (["-1", "1"], ["1", "-1"])


@pytest.mark.parametrize("field,expected", [
    (QQ, [("1", "0", "0", "0", "0", "0"),
          ("0", "0", "0", "0", "1", "0"),
          ("0", "y^2 - x", "0", "0", "0", "-x"),
          ("0", "-1", "1", "0", "0", "0"),
          ("0", "-y", "0", "1", "0", "0")]),
    (GF(32003), [("1", "0", "0", "0", "0", "0"),
                 ("0", "0", "0", "0", "1", "0"),
                 ("0", "y^2 + 32002*x", "0", "0", "0", "32002*x"),
                 ("0", "32002", "1", "0", "0", "0"),
                 ("0", "32002*y", "0", "1", "0", "0")]),
], ids=["Q", "GF32003"])
def test_syzygies_of_zero_and_repeated_generators_in_order(field, expected):
    # the e_i of the zero generators first, then the S-pair syzygies, then
    # the identity defects of the nonzero generators
    S = PolyRing(["x", "y"], field)
    gens = tuple(S.parse(t) for t in ("0", "x", "x", "x*y", "0", "y^2 - x"))
    assert [tuple(str(p) for p in v)
            for v in syzygies(gens, ring=S)] == expected


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
def test_empty_generator_lists_take_the_general_path(field):
    # no generators: no syzygies, a zero ideal under elimination and a zero
    # row for a zero numerator, with no separate branch for any of them
    S = PolyRing(["x", "y"], field)
    zero = Ideal(S, [])
    assert syzygies((), ring=S) == ()
    K = eliminate(zero, ["x"])
    assert K.ring == PolyRing(["y"], field)
    assert K.is_zero() and K.groebner() == ()
    assert Subquotient(zero, zero).dims(5) == (0,) * 6


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
def test_subquotient_refuses_a_relation_outside_its_numerator(field):
    S = PolyRing(["x", "y"], field)
    numer = Ideal(S, ["x"])
    sq = Subquotient(numer, Ideal(S, ["x*y", "x^2"]))
    assert sq.ambient == S and sq.gens == numer.gens
    with pytest.raises(ValueError, match="not a member of the numerator"):
        Subquotient(numer, Ideal(S, ["x*y", "y^2"]))


def test_subquotient_refuses_relations_in_another_ring():
    S, T = PolyRing(["x", "y"]), PolyRing(["x", "y", "z"])
    # an empty relation ideal has no generator to test for membership, so
    # only the ring check can refuse it
    for rels in (Ideal(T, ["x*z"]), Ideal(T, [])):
        with pytest.raises(ValueError, match="common ring"):
            Subquotient(Ideal(S, ["x"]), rels)


def test_syzygy_soundness_and_truncated_completeness(R):
    gens = (R.parse("x^2"), R.parse("x*y"), R.parse("y^3 - x^2"))
    basis = syzygies(gens, ring=R)
    for v in basis:
        total = R.zero
        for p, g in zip(v, gens):
            total = total + p * g
        assert total.is_zero()
    # in each degree <= 6 the span of the basis equals the oracle kernel
    from xsq.linalg import Echelon
    for d in range(7):
        kern_rows, fb = truncated_module_kernel(list(gens), R, d)
        span = Echelon(R.field)
        for v in basis:
            top = max((p.wdeg() for p in v if not p.is_zero()), default=0)
            if top > d:
                continue
            for m in monomials_upto(R, d - top):
                shifted = tuple(p * R.monomial(m) for p in v)
                span.add(dict(enumerate(vector_to_coords(shifted, fb))))
        rank_kernel = Echelon(R.field)
        for row in kern_rows:
            rank_kernel.add(dict(enumerate(row)))
        assert span.rank == rank_kernel.rank


def test_affine_hilbert_rows():
    Rx = PolyRing(["x"])
    assert affine_hilbert(Ideal(Rx, ["x^2"]), 4) == (1, 2, 2, 2, 2)
    assert affine_hilbert(Ideal(Rx, []), 3) == (1, 2, 3, 4)
    assert affine_hilbert(Ideal(Rx, ["1"]), 3) == (0, 0, 0, 0)


def test_affine_hilbert_generating_set_invariance(R):
    I = Ideal(R, ["x^2 - y", "y^2"])
    regenerated = Ideal(R, [
        I.gens[0] + I.gens[1],
        I.gens[1],
        R.parse("x^2") * I.gens[0] - R.parse("y") * I.gens[1],
    ])
    assert ideal_equal(I, regenerated)
    assert affine_hilbert(I, 6) == affine_hilbert(regenerated, 6)


def test_graded_dims_shape(R):
    dims = affine_hilbert(Ideal(R, ["x"]), 5)
    assert isinstance(dims, tuple)
    assert len(dims) - 1 == 5
    assert all(dims[d] <= dims[d + 1] for d in range(5))
    assert dims[0] in (0, 1)


def test_ideal_equal_examples(R):
    assert ideal_equal(Ideal(R, ["x^2", "x*y"]), Ideal(R, ["x*y", "x^2"]))
    assert not ideal_equal(Ideal(R, ["x"]), Ideal(R, ["x^2"]))


def test_budget_exhaustion_is_loud(R):
    gens = ["x^3*y - y^3", "x*y^3 - x^2", "y^4 - x^2*y"]
    with pytest.raises(BudgetExceeded), budget(3):
        Ideal(R, gens).groebner()
    # and a fresh ideal with room succeeds
    with budget(10**6):
        assert Ideal(R, gens).groebner()


SEQUENCE = (["x^3*y - y^3", "x*y^3 - x^2", "y^4 - x^2*y"],
            ["x^2 - y^3", "x*y^2 - 1"],
            ["x^2*y - x", "x*y^2 - y", "x^3 - y^3"])


def test_one_budget_bounds_every_computation_in_its_block(R):
    def sequence():
        for gens in SEQUENCE:  # fresh ideals: no basis is cached
            Ideal(R, gens).groebner()

    with budget(10**6) as counter:
        sequence()
    s = counter.limit - counter.left
    with budget(s):
        sequence()
    with pytest.raises(BudgetExceeded) as e, budget(s - 1):
        sequence()
    assert str(e.value) == "step budget of %d reductions exceeded" % (s - 1)
    # each basis alone fits in s - 1 steps; an inner block charges only
    # itself and restores the outer counter when it exits
    with budget(10**6) as outer:
        for gens in SEQUENCE:
            with budget(s - 1) as inner:
                Ideal(R, gens).groebner()
            assert inner.left < inner.limit
            assert groebner._steps is outer
        assert outer.left == outer.limit
    assert groebner._steps.limit == float("inf")  # no limit outside a block


def test_weighted_hilbert_uses_weights():
    RS = PolyRing(["x", "S"], weights=(1, 2))
    # monomials of weight <= 2: 1, x, x^2, S
    assert affine_hilbert(Ideal(RS, []), 2) == (1, 2, 4)


def test_integral_bases_keep_int_coefficients(capsys):
    """Over Q an integral coefficient stays a plain int through the engine:
    every reduced basis that build computes on fixture c has only int
    coefficients (no Fraction, not even an integral one)."""
    reduce_basis = groebner._reduce_basis
    bases = []

    def recording(*args):
        out = reduce_basis(*args)
        bases.extend(out[0])
        return out

    fixture = Path(__file__).resolve().parent.parent / "fixtures"
    with mock.patch.object(groebner, "_reduce_basis", recording):
        assert cli.main(["build", str(fixture / "fixture_c.json")]) == 0
    capsys.readouterr()
    assert len(bases) > 10
    assert all(type(c) is int for b in bases for _, _, c in b)
