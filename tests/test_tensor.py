import random

import pytest

from xsq import (GF, ConstructionData, Ideal, PolyRing, QQ,
                 TensorPresentation, assemble_L, build_skeleton,
                 compare_corner, coproduct, free_crossed_on, functor_M,
                 verify_square, verify_xmod)
from xsq.homotopy import _tensor_kernel_dims
from xsq.linalg import FilteredBasis
from xsq.tensor import kernel_tensor

from .oracle import ideal_equal


def free_xmod(data):
    """The free crossed module of the level-1 data."""
    return free_crossed_on(data.base_ring, data.s2_names,
                           data.boundary_images)


def test_tensor_zero_module_collapses(skel_a):
    E1 = skel_a.E1
    pres = TensorPresentation(Ideal(E1, ["S"]), Ideal(E1, []))
    assert not pres.symbols
    assert list(pres.top.dims(6)) == [0] * 7


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
@pytest.mark.parametrize("m_gens", [[], ["x"]], ids=["empty", "one-sided"])
def test_tensor_with_an_empty_corner_is_zero(field, m_gens):
    # the general construction on an empty list: no symbols, so the ring is
    # the base, the relations and the numerator are zero and so are the
    # kernel rows; the structure maps are the identity
    R = PolyRing(("x", "y"), field)
    pres = TensorPresentation(Ideal(R, m_gens), Ideal(R, []))
    assert pres.top.ambient == R and not pres.symbols
    assert pres.top.rels.is_zero() and pres.top.numer.is_zero()
    assert pres.bnd(R.var("x")) == pres.lift(R.var("x")) == R.var("x")
    zeros = (0,) * 5
    assert _tensor_kernel_dims(pres, FilteredBasis(R, 4)) == (zeros, zeros)
    m = pres.left.gens[0] if pres.left.gens else R.zero
    assert pres.expand(m, R.zero).is_zero()


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
def test_tensor_class_with_a_zero_argument_is_zero(field):
    R = PolyRing(("x", "y"), field)
    pres = TensorPresentation(Ideal(R, ["x"]), Ideal(R, ["y"]))
    assert len(pres.symbols) == 1
    assert pres.expand(R.zero, R.var("y")).is_zero()
    assert pres.expand(R.parse("x^2"), R.zero).is_zero()


def test_tensor_fixture_a_presentation(skel_a):
    E1 = skel_a.E1
    pres = TensorPresentation(Ideal(E1, ["S"]), Ideal(E1, ["S - x^2"]))
    assert len(pres.symbols) == 1
    g = pres.symbols[0]
    # single product relation: the square of the symbol rewrites to
    # S*(S - x^2) times the symbol
    rels = pres.top.rels
    assert len(rels.gens) == 1
    rel = rels.gens[0]
    assert rels.member(g * g - pres.lift(E1.parse("S*(S-x^2)")) * g)
    assert rel.wdeg() == 8
    # structure map: symbol -> product of the generator pair
    assert pres.bnd(g) == E1.parse("S*(S - x^2)")


def test_tensor_square_verifies(skel_a, skel_b):
    for skel in (skel_a, skel_b):
        corners = functor_M(skel, 2)
        rep = verify_square(TensorPresentation(corners.left, corners.right))
        assert rep.ok, rep.to_obj()


@pytest.mark.parametrize("m_gens, n_gens", [(["x"], ["0", "y"]),
                                             (["x", "0", "y"], ["y", "x"])])
def test_tensor_square_of_corners_with_zero_generators(m_gens, n_gens):
    # the ideals drop the zero generators; the symbols must be indexed by
    # the same lists as the cofactor lifts
    R = PolyRing(("x", "y"), QQ)
    pres = TensorPresentation(Ideal(R, m_gens), Ideal(R, n_gens))
    assert all(not g.is_zero() for g in pres.left.gens + pres.right.gens)
    rep = verify_square(pres)
    assert rep.ok, rep.to_obj()


def test_tensor_slot_relations_from_syzygies(skel_b):
    E1 = skel_b.E1
    m_gens = [E1.var("S1"), E1.var("S2")]
    n_gens = [E1.parse("S1 - x^2"), E1.parse("S2 - x*y")]
    pres = TensorPresentation(Ideal(E1, m_gens), Ideal(E1, n_gens))
    assert len(pres.symbols) == 4
    # a slot-one syzygy relation: S2*(S1 (x) n) - S1*(S2 (x) n) maps to 0
    g00, g10 = pres.top.ambient.var("g0_0"), pres.top.ambient.var("g1_0")
    emb = pres.lift
    candidate = emb(E1.var("S2")) * g00 - emb(E1.var("S1")) * g10
    assert pres.top.rels.member(candidate) \
        or pres.top.rels.member(-candidate)


def test_tensor_symmetry_of_relations(skel_b):
    E1 = skel_b.E1
    m_gens = [E1.var("S1"), E1.var("S2")]
    n_gens = [E1.parse("S1 - x^2"), E1.parse("S2 - x*y")]
    M, N = Ideal(E1, m_gens), Ideal(E1, n_gens)
    direct, swapped = TensorPresentation(M, N), TensorPresentation(N, M)
    for d in range(7):
        assert direct.top.dims(d) == swapped.top.dims(d)


def test_tensor_expand_is_bilinear(skel_a):
    E1 = skel_a.E1
    pres = TensorPresentation(Ideal(E1, ["S"]), Ideal(E1, ["S - x^2"]))
    S, nbar = E1.var("S"), E1.parse("S - x^2")
    two = QQ.coerce(2)
    lhs = pres.expand(S * two + E1.parse("x*S"), nbar)
    rhs = pres.expand(S, nbar) * two + pres.expand(E1.parse("x*S"), nbar)
    assert pres.top.rels.member(lhs - rhs)


def test_combination_of_unit_tuples_is_the_symbol(skel_b):
    pres = kernel_tensor(skel_b)
    E1 = skel_b.E1
    m_gens, n_gens = pres.left.gens, pres.right.gens
    for p in range(len(m_gens)):
        for q in range(len(n_gens)):
            a = [E1.one if i == p else E1.zero for i in range(len(m_gens))]
            b = [E1.one if i == q else E1.zero for i in range(len(n_gens))]
            assert pres.combination(a, b) \
                == pres.top.ambient.var(pres.grid[p][q])


def _random_coefficients(rng, ring, count):
    """count random polynomials of degree at most one over ring."""
    return [sum((ring.var(v) * rng.randint(-3, 3) for v in ring.vars),
                ring.const(rng.randint(-3, 3))) for _ in range(count)]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expand_is_bilinear_on_random_coefficients(field, seed):
    data = ConstructionData(field, ["x", "y"],
                            [("S1", "x^2"), ("S2", "x*y")], [])
    skel = build_skeleton(data)
    pres = kernel_tensor(skel)
    E1, rels = skel.E1, pres.top.rels
    m_gens, n_gens = pres.left.gens, pres.right.gens
    rng = random.Random(seed)

    def element(gens, coeffs):
        return sum((c * g for c, g in zip(coeffs, gens)), E1.zero)

    a, a2 = (_random_coefficients(rng, E1, len(m_gens)) for _ in range(2))
    b, b2 = (_random_coefficients(rng, E1, len(n_gens)) for _ in range(2))
    m, m2 = element(m_gens, a), element(m_gens, a2)
    n, n2 = element(n_gens, b), element(n_gens, b2)
    c = _random_coefficients(rng, E1, 1)[0]
    # the structure map sends the symbol sum of m (x) n to m*n, and every
    # relation to zero
    assert pres.bnd(pres.combination(a, b)) == m * n
    assert pres.bnd(pres.expand(m, n)) == m * n
    assert all(pres.bnd(r).is_zero() for r in rels.gens)
    # m (x) n is the symbol sum of its coefficient tuples
    assert rels.member(pres.expand(m, n) - pres.combination(a, b))
    # additive in each slot, and base elements slide through either slot
    assert rels.member(pres.expand(m + m2, n) - pres.expand(m, n)
                       - pres.expand(m2, n))
    assert rels.member(pres.expand(m, n + n2) - pres.expand(m, n)
                       - pres.expand(m, n2))
    assert rels.member(pres.expand(c * m, n) - pres.lift(c)
                       * pres.expand(m, n))
    assert rels.member(pres.expand(m, c * n) - pres.lift(c)
                       * pres.expand(m, n))


def test_coproduct_with_zero_module(data_a):
    cm = free_xmod(data_a)
    zero = free_crossed_on(cm.bnd.codomain, (), ())
    result = coproduct(cm, zero)
    assert result.top is cm.top
    assert result.i_names == {"S": "S"} and result.j_names == {}
    assert coproduct(zero, cm).top is cm.top
    assert coproduct(zero, cm).j_names == {"S": "S"}
    assert result.top.rels.groebner() == cm.top.rels.groebner()


def test_coproduct_of_two_copies(data_a):
    # both inputs the free crossed module of the one-generator data: the
    # merged presentation carries copies S_a, S_b and the cross Peiffer
    # generator x^2*S_a - x^2*S_b
    cm = free_xmod(data_a)
    result = coproduct(cm, cm)
    merged = result.top.ambient
    assert "S_a" in merged.vars and "S_b" in merged.vars
    assert result.i_names == {"S": "S_a"} and result.j_names == {"S": "S_b"}
    # the cross Peiffer generators bnd(w).u - bnd(u).w, rebuilt from the
    # summands' boundaries, are relations of the merged presentation
    emb, i = result.lift, result.i_hom

    def j(w):
        return merged.var(result.j_names[str(w)])

    cross = [emb(cm.bnd(w)) * i(u) - emb(cm.bnd(u)) * j(w)
             for u in cm.top.gens for w in cm.top.gens]
    assert cross == [merged.parse("x^2*S_a - x^2*S_b")]
    for g in cross:
        assert result.top.rels.member(g)
        # the boundary kills every Peiffer generator
        assert result.bnd(g).is_zero()
    # injections are algebra maps compatible with the boundaries
    for g in cm.top.gens:
        assert result.bnd(i(g)) == cm.bnd(g)
        assert result.bnd(j(g)) == cm.bnd(g)
    assert verify_xmod(result).ok


def test_coproduct_satisfies_cm2(data_b):
    cm = free_xmod(data_b)
    result = coproduct(cm, cm)
    assert verify_xmod(result).ok


def test_assemble_reduces_to_tensor_without_s3(skel_b):
    assembled = assemble_L(skel_b)
    pres = assembled.tensor
    assert not assembled.extra_relations
    assert ideal_equal(
        Ideal(pres.top.ambient, [g for g in assembled.top.rels.gens]),
        pres.top.rels)


def test_assemble_fixture_c_presentation(skel_c):
    assembled = assemble_L(skel_c)
    merged = assembled.top.ambient
    assert "T" in merged.vars
    assert len([v for v in merged.vars if v.startswith("g")]) == 4
    # two relation families, one per (generator, adjoined name) pair
    assert len(assembled.extra_relations) == 4
    # well-formedness: both sides of each interchange relation have the
    # same boundary, so the relations map to zero
    for rel in assembled.extra_relations:
        assert assembled.bnd(rel).is_zero()
    # the square structure on the assembly verifies
    rep = verify_square(assembled)
    assert rep.ok, rep.to_obj()


def test_assembled_variant_relations_are_not_boundary_compatible(skel_c):
    assembled = assemble_L(skel_c)
    assert any(not assembled.bnd(rel).is_zero()
               for rel in assembled.variant_relations)


@pytest.mark.parametrize("which,D", [("a", 6), ("b", 6)])
def test_corner_comparison_tensor(which, D, skel_a, skel_b):
    skel = {"a": skel_a, "b": skel_b}[which]
    rep = compare_corner(skel, D=D)
    assert rep["ok"], rep
    assert all(r["status"] == "pass" for r in rep["well_defined"])
    assert all(r["status"] == "pass" for r in rep["surjective"])
    assert rep["hilbert"]["target"] == rep["hilbert"]["moore"]


def test_corner_comparison_assembly(skel_c):
    rep = compare_corner(skel_c, D=5)
    assert rep["ok"], rep
    # the bare-term variant relations do not map to zero: recorded, not hidden
    variant = rep["bare_term_variant_relations"]
    assert variant
    assert not any(r["status"] == "pass" for r in variant)


def test_corner_comparison_trivial_data():
    data = ConstructionData(QQ, ["x"], [], [])
    rep = compare_corner(build_skeleton(data), D=3)
    assert rep["ok"]
    assert rep["hilbert"]["target"] == [0, 0, 0, 0]


def test_comparison_report_serialization(skel_a):
    obj = compare_corner(skel_a, D=4)
    assert obj["ok"] is True
    assert obj["hilbert"]["equal"] is True
