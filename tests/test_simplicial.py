from pathlib import Path

import pytest

from xsq import (GF, ConstructionData, Ideal, InvalidData, QQ, build_skeleton,
                 hom_kernel, ideal_intersect, peiffer_P1, peiffer_P2,
                 simplicial_identity_report)
from xsq.simplicial import _c_instances

from .oracle import explicit_p2, ideal_equal, s3_free_instances

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_ring_towers(skel_a, skel_c):
    assert skel_a.E1.vars == ("x", "S")
    assert skel_a.E2.vars == ("x", "s0_S", "s1_S")
    assert skel_a.E3.vars == ("x", "s1s0_S", "s2s0_S", "s2s1_S")
    assert skel_c.E2.vars == ("x", "y", "s0_S1", "s0_S2",
                              "s1_S1", "s1_S2", "T")


def test_zero_skeleton_collapses():
    data = ConstructionData(QQ, ["x", "y"], [], [])
    sk = build_skeleton(data)
    assert all(r.vars == ("x", "y") for r in sk.rings)
    for (n, i), h in sk.face.items():
        for v in h.domain.vars:
            assert h(h.domain.var(v)) == h.codomain.var(v)


@pytest.mark.parametrize("which", ["a", "b", "c", "d4f"])
def test_simplicial_identities_exhaustive(which, skel_a, skel_b, skel_c,
                                          skel_d4f):
    skel = {"a": skel_a, "b": skel_b, "c": skel_c, "d4f": skel_d4f}[which]
    report = simplicial_identity_report(skel)
    assert report and all(ok for _, ok in report)


@pytest.mark.parametrize("which", ["a", "b", "c", "d4f"])
def test_free_construction_rule(which, skel_a, skel_b, skel_c, skel_d4f):
    """An adjoined generator at level l has d_i = 0 for i < l, and d_l is
    its image."""
    skel = {"a": skel_a, "b": skel_b, "c": skel_c, "d4f": skel_d4f}[which]
    for level, gens in ((1, skel.data.s2), (2, skel.data.s3)):
        for name, image in gens:
            x = skel.rings[level].var(name)
            for i in range(level):
                assert skel.face[(level, i)](x).is_zero()
            assert skel.face[(level, level)](x) == image


def test_level1_faces(skel_a):
    d0, d1 = skel_a.face[(1, 0)], skel_a.face[(1, 1)]
    S = skel_a.E1.var("S")
    assert d0(S).is_zero()
    assert d1(S) == skel_a.base.parse("x^2")


def test_moore_closed_forms(skel_a, skel_c):
    m = skel_a.moore()
    assert [str(g) for g in m.ne1.groebner()] == ["S"]
    assert ideal_equal(m.kbar, Ideal(skel_a.E1, ["S - x^2"]))
    mc = skel_c.moore()
    assert mc.ne2.member(skel_c.E2.var("T"))


def test_moore_ne2_is_the_kernel_intersection(skel_b):
    m = skel_b.moore()
    k0 = hom_kernel(skel_b.face[(2, 0)])
    k1 = hom_kernel(skel_b.face[(2, 1)])
    assert ideal_equal(m.ne2, ideal_intersect(k0, k1))


def test_peiffer_level1(data_a, data_b):
    P1 = peiffer_P1(data_a)
    assert ideal_equal(P1, Ideal(data_a.ring1, ["S^2 - x^2*S"]))
    P1b = peiffer_P1(data_b)
    E1 = data_b.ring1
    assert P1b.member(E1.parse("x^2*S2 - x*y*S1"))
    empty = ConstructionData(QQ, ["x"], [], [])
    assert peiffer_P1(empty).is_zero()


def test_peiffer_level2_fixture_a(skel_a):
    P2 = peiffer_P2(skel_a)
    expected = Ideal(skel_a.E2, ["s1_S*(s0_S - s1_S)*(x^2 - s0_S)"])
    assert ideal_equal(P2, expected)


def test_peiffer_level2_explicit_family_member(skel_c):
    # the generator (t_1 - s0_S1) * T appears in the explicit list
    E2 = skel_c.E2
    assert Ideal(E2, explicit_p2(skel_c)).member(E2.parse("(x^2 - s0_S1)*T"))


def test_peiffer_level2_explicit_empty_without_s3(skel_b):
    assert explicit_p2(skel_b) == []


def test_peiffer_level2_trivial_for_empty_data():
    data = ConstructionData(QQ, ["x"], [], [])
    sk = build_skeleton(data)
    assert peiffer_P2(sk).is_zero()
    assert explicit_p2(sk) == []


@pytest.mark.parametrize("which", ["c", "d3", "d4f", "f1"])
def test_peiffer_route_equality(which, data_c, skel_d4f):
    # the explicit families, extended by the instances that avoid the
    # level-2 generators, give the same ideal as the full instantiation;
    # d4f has two level-2 generators, so the families on pairs of them
    # count, and f1 is over GF(32003)
    data = {"c": data_c, "d3": ConstructionData.from_json(
                (FIXTURES / "d3.json").read_text()),
            "f1": ConstructionData(GF(32003), ["x", "y", "z"],
                                   [("A", "x*y"), ("B", "y*z")],
                                   [("T", "z*A - x*B")])}
    skel = skel_d4f if which == "d4f" else build_skeleton(data[which])
    d3 = skel.face[(3, 3)]
    s3_free = [d3(z) for z in s3_free_instances(skel)]
    assert ideal_equal(peiffer_P2(skel),
                       Ideal(skel.E2, explicit_p2(skel) + s3_free))


@pytest.mark.parametrize("which", ["a", "b", "c"])
def test_peiffer_level2_matches_level3_kernel(which, skel_a, skel_b, skel_c):
    """Independent route: compute the full level-3 Moore kernel by
    elimination, check it lies in the degenerate ideal, and push it down
    along the last face."""
    skel = {"a": skel_a, "b": skel_b, "c": skel_c}[which]
    kers = [hom_kernel(skel.face[(3, i)]) for i in range(3)]
    ne3 = ideal_intersect(ideal_intersect(kers[0], kers[1]), kers[2])
    E3 = skel.E3
    deg3 = Ideal(E3, [E3.var(v) for v in E3.vars
                      if v not in skel.data.s1_names])
    for g in ne3.gens:
        assert deg3.member(g)
    direct = Ideal(skel.E2, [skel.face[(3, 3)](g) for g in ne3.gens])
    assert ideal_equal(direct, peiffer_P2(skel))


def test_p1_and_p2_sit_inside_the_moore_kernels(skel_b):
    m = skel_b.moore()
    for g in peiffer_P1(skel_b.data).gens:
        assert m.ne1.member(g)
    for g in peiffer_P2(skel_b).gens:
        assert m.ne2.member(g)


def test_boundary_of_level2_kernel_descends(skel_b):
    m = skel_b.moore()
    d2 = skel_b.face[(2, 2)]
    for g in m.ne2.gens:
        assert m.ne1.member(d2(g))


def test_level3_families_live_in_the_moore_kernel(skel_c):
    for z in _c_instances(skel_c):
        for i in range(3):
            assert skel_c.face[(3, i)](z).is_zero(), z


def test_validation_rejects_nonzero_boundary():
    with pytest.raises(InvalidData) as e:
        ConstructionData(QQ, ["x", "y"], [("S1", "x^2")],
                         [("T", "y*S1")])
    assert "nonzero boundary" in str(e.value)
    assert "x^2*y" in str(e.value)


def test_validation_rejects_bad_names_and_images():
    with pytest.raises(InvalidData):
        ConstructionData(QQ, ["x", "x"], [], [])
    with pytest.raises(InvalidData):
        ConstructionData(QQ, ["x"], [("x", "x")], [])
    with pytest.raises(InvalidData):
        ConstructionData(QQ, ["x"], [("s0_S", "x")], [])
    with pytest.raises(InvalidData):
        ConstructionData(QQ, ["x"], [("S", "x")], [("T", "x")])  # not in (S2)
    with pytest.raises(InvalidData):
        ConstructionData(QQ, ["x"], [("S", "q + 1")], [])


def test_from_dict_roundtrip(data_c):
    again = ConstructionData.from_dict(data_c.to_dict())
    assert again.to_dict() == data_c.to_dict()


def test_from_dict_rejects_malformed():
    with pytest.raises(InvalidData):
        ConstructionData.from_dict({"field": "R", "S1": ["x"]})
    with pytest.raises(InvalidData):
        ConstructionData.from_dict({"S1": "x"})
    with pytest.raises(InvalidData):
        ConstructionData.from_dict({"S1": ["x"], "S2": [{"name": "S"}]})


def test_truncation_levels(data_b, data_c):
    assert data_c.truncate(1).s3 == ()
    assert data_c.truncate(0).s2 == ()
    assert data_c.truncate(2) is data_c
    # a truncation that drops nothing is the data itself
    assert data_b.truncate(1) is data_b
    assert data_b.truncate(0).s2 == ()
    empty = data_b.truncate(0)
    assert empty.truncate(0) is empty and empty.truncate(1) is empty


@pytest.mark.parametrize("which", ["a", "b", "c"])
def test_every_produced_polynomial_reparses(which, skel_a, skel_b, skel_c):
    # the text grammar round-trips every polynomial a fixture run produces
    skel = {"a": skel_a, "b": skel_b, "c": skel_c}[which]
    m = skel.moore()
    produced = []
    produced += [(g, skel.E1) for g in m.ne1.groebner()]
    produced += [(g, skel.E1) for g in m.kbar.groebner()]
    produced += [(g, skel.E2) for g in m.ne2.groebner()]
    produced += [(g, skel.E1) for g in peiffer_P1(skel.data).gens]
    produced += [(g, skel.E2) for g in peiffer_P2(skel).groebner()]
    for (n, i), h in skel.face.items():
        produced += [(h(h.domain.var(v)), h.codomain)
                     for v in h.domain.vars]
    assert produced
    for p, ring in produced:
        assert ring.parse(str(p)) == p
