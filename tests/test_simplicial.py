from pathlib import Path

import pytest

from xsq import (GF, ConstructionData, Ideal, InvalidData, QQ, RingHom,
                 build_skeleton, hom_kernel, ideal_intersect, peiffer_P1,
                 peiffer_P2)
from xsq.rings import reringed
from xsq.simplicial import _c_instances

from .oracle import (explicit_p2, ideal_equal, s3_free_instances,
                     simplicial_identities)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_ring_towers(skel_a, skel_c):
    assert skel_a.E1.vars == ("x", "S")
    assert skel_a.E2.vars == ("x", "s0_S", "s1_S")
    assert skel_a.rings[3].vars == ("x", "s1s0_S", "s2s0_S", "s2s1_S")
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
    report = simplicial_identities(skel)
    assert report and all(ok for _, ok in report)


def test_a_degeneracy_that_breaks_an_identity_is_reported(data_a):
    # negative control: with s_0 at level 1 followed by x -> 2x, d_0 s_0
    # and d_1 s_0 are no longer the identity, and s_0 s_0 = s_1 s_0 fails
    skel = build_skeleton(data_a)
    E = skel.rings[2]
    skel.degen[(1, 0)] = skel.degen[(1, 0)].then(
        RingHom.from_map(E, E, {"x": 2 * E.var("x")}))
    failed = {name for name, ok in simplicial_identities(skel) if not ok}
    assert {"d0 s0 = id (level 1)", "d1 s0 = id (level 1)",
            "s0 s0 = s1 s0 (level 0)"} <= failed


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
    assert [str(g) for g in skel_a.kernel(1, 0).groebner()] == ["S"]
    assert ideal_equal(skel_a.kernel(1, 1), Ideal(skel_a.E1, ["S - x^2"]))
    assert skel_c.moore().member(skel_c.E2.var("T"))


def test_moore_ne2_is_the_kernel_intersection(skel_b):
    k0 = hom_kernel(skel_b.face[(2, 0)])
    k1 = hom_kernel(skel_b.face[(2, 1)])
    assert ideal_equal(skel_b.moore(), ideal_intersect(k0, k1))


FACES = [(n, i) for n in (1, 2, 3) for i in range(n + 1)]


@pytest.mark.parametrize("which", ["a", "b", "c", "d3", "d4f"])
def test_every_face_kernel_matches_its_elimination(which, skeleton):
    skel = skeleton(which)
    assert len(FACES) == 9
    for n, i in FACES:
        K, face = skel.kernel(n, i), skel.face[(n, i)]
        assert K is skel.kernel(n, i)  # made once
        assert all(face(g).is_zero() for g in K.gens)
        assert ideal_equal(K, hom_kernel(face))


@pytest.mark.parametrize("which", ["a", "b", "c", "d3", "d4f"])
def test_face_kernels_in_closed_form(which, skeleton):
    # the m_i = S_i generate Ker d_0 and the n_i = S_i - t_i Ker d_1 at
    # level 1; at level 2 the s1 copies and Ker d_1 the differences of the
    # two copies, each with the level-2 generators
    skel = skeleton(which)
    E1, E2 = skel.E1, skel.E2
    s2n = skel.data.s2_names
    s3 = [E2.var(n) for n in skel.data.s3_names]
    closed = {
        (1, 0): [E1.var(n) for n in s2n],
        (1, 1): [E1.var(n) - reringed(t, E1) for n, t in skel.data.s2],
        (2, 0): [E2.var("s1_" + n) for n in s2n] + s3,
        (2, 1): [E2.var("s0_" + n) - E2.var("s1_" + n) for n in s2n] + s3}
    for key, gens in closed.items():
        assert skel.kernel(*key).gens == tuple(gens), key
    for i in (0, 1):
        assert skel.corners[i] is skel.kernel(1, i)


@pytest.mark.parametrize("n, i", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_a_degeneracy_that_is_no_section_is_refused(n, i, data_a):
    # negative control: with s followed by x -> 2x, d_i s is not the
    # identity, v - s(d_i(v)) leaves Ker d_i, and the check must say so
    skel = build_skeleton(data_a)
    key = (n - 1, min(i, n - 1))
    E = skel.rings[n]
    skel.degen[key] = skel.degen[key].then(
        RingHom.from_map(E, E, {"x": 2 * E.var("x")}))
    with pytest.raises(AssertionError, match="elimination"):
        skel.kernel(n, i)


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
    E3 = skel.rings[3]
    deg3 = Ideal(E3, [E3.var(v) for v in E3.vars
                      if v not in skel.data.s1_names])
    for g in ne3.gens:
        assert deg3.member(g)
    direct = Ideal(skel.E2, [skel.face[(3, 3)](g) for g in ne3.gens])
    assert ideal_equal(direct, peiffer_P2(skel))


def test_p1_and_p2_sit_inside_the_moore_kernels(skel_b):
    for g in peiffer_P1(skel_b.data).gens:
        assert skel_b.corners[0].member(g)
    for g in peiffer_P2(skel_b).gens:
        assert skel_b.moore().member(g)


def test_boundary_of_level2_kernel_descends(skel_b):
    d2 = skel_b.face[(2, 2)]
    for g in skel_b.moore().gens:
        assert skel_b.corners[0].member(d2(g))


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


@pytest.mark.parametrize("which", ["a", "b", "c"])
def test_every_produced_polynomial_reparses(which, skel_a, skel_b, skel_c):
    # the text grammar round-trips every polynomial a fixture run produces
    skel = {"a": skel_a, "b": skel_b, "c": skel_c}[which]
    produced = []
    produced += [(g, skel.E1) for K in skel.corners for g in K.groebner()]
    produced += [(g, skel.E2) for g in skel.moore().groebner()]
    produced += [(g, skel.E1) for g in peiffer_P1(skel.data).gens]
    produced += [(g, skel.E2) for g in peiffer_P2(skel).groebner()]
    for (n, i), h in skel.face.items():
        produced += [(h(h.domain.var(v)), h.codomain)
                     for v in h.domain.vars]
    assert produced
    for p, ring in produced:
        assert ring.parse(str(p)) == p
