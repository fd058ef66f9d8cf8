import pytest

from xsq import (GF, ConstructionData, CrossedSquare, Ideal, PolyRing, QQ,
                 RingHom, Subquotient, TensorPresentation, affine_hilbert,
                 build_skeleton, free_crossed_on, functor_M, h_eval,
                 peiffer_P1, verify_square, verify_xmod)
from xsq.crossed import CrossedModule
from xsq.tensor import kernel_tensor

from .oracle import ideal_equal


def free_xmod(data):
    """The free crossed module of the level-1 data."""
    return free_crossed_on(data.base_ring, data.s2_names,
                           data.boundary_images)


def test_free_crossed_module_boundary(data_a, data_b):
    cm = free_xmod(data_a)
    assert cm.bnd(cm.top.ambient.var("S")) == data_a.base_ring.parse("x^2")
    cmb = free_xmod(data_b)
    assert cmb.bnd(cmb.top.ambient.var("S1")) == data_b.base_ring.parse("x^2")
    assert cmb.bnd(cmb.top.ambient.var("S2")) == data_b.base_ring.parse("x*y")
    empty = free_xmod(ConstructionData(QQ, ["x"], [], []))
    assert not empty.top.gens


def test_precrossed_fails_cm2_before_quotient(data_b):
    # the free pre-crossed module: the ring, generators and maps of the
    # free crossed module with no relations
    cm = free_xmod(data_b)
    amb = cm.top.ambient
    pre = CrossedModule(
        top=Subquotient(cm.top.numer, Ideal(amb, [])),
        bnd=cm.bnd, lift=cm.lift)
    rep = verify_xmod(pre)
    failed = [i for i in rep.failures() if i["check"] == "CM2"]
    assert failed  # S1*S2 - x^2*S2 has nonzero normal form mod (0)
    # the same rows pass after the Peiffer quotient
    assert [i for i in verify_xmod(cm).items if i["check"] == "CM2"]
    assert not verify_xmod(cm).failures()


def test_free_crossed_module_examples(data_a, data_b):
    cm = free_xmod(data_a)
    E1 = cm.top.ambient
    assert cm.top.nf(E1.parse("S^2 - x^2*S")).is_zero()
    assert verify_xmod(cm).ok
    cmb = free_xmod(data_b)
    E1b = cmb.top.ambient
    assert cmb.top.nf(E1b.parse("S1*S2 - x^2*S2")).is_zero()
    assert verify_xmod(cmb).ok


def test_free_crossed_on_consistency(data_b, data_c):
    # over the base ring on the level-1 names, the general construction
    # is the level-1 ring divided by the Peiffer ideal P1
    cm = free_xmod(data_b)
    assert cm.top.ambient == data_b.ring1
    assert cm.top.rels.groebner() == peiffer_P1(data_b).groebner()
    # the level-2 construction data as a crossed module over R[S2]
    E1 = data_c.ring1
    f3 = {n: img for n, img in data_c.s3}
    C = free_crossed_on(E1, data_c.s3_names, [f3["T"]])
    assert str(C.bnd(C.top.ambient.var("T"))) == "y*S1 - x*S2"
    assert verify_xmod(C).ok
    empty = free_crossed_on(E1, (), ())
    assert not empty.top.gens


F32003 = GF(32003)
LEVEL1_INPUTS = {
    "f1": (F32003, ["x", "y", "z"], [("A", "x*y"), ("B", "y*z")],
           [("T", "z*A - x*B")]),
    "f2": (F32003, ["x", "y", "z"], [("A", "x*y"), ("B", "y*z")], []),
}


@pytest.mark.parametrize("which", ["a", "b", "c", "f1", "f2"])
def test_level1_functor_relations_are_p1_in_order(which, data_a, data_b,
                                                 data_c):
    data = {"a": data_a, "b": data_b, "c": data_c}.get(which)
    if data is None:
        data = ConstructionData(*LEVEL1_INPUTS[which])
    cm = functor_M(build_skeleton(data), 1)
    assert cm.top.ambient == data.ring1
    assert cm.top.rels.gens == peiffer_P1(data).gens
    for name, image in data.s2:
        assert cm.bnd(data.ring1.var(name)) == image
    for v in data.s1_names:
        assert cm.lift(data.base_ring.var(v)) == data.ring1.var(v)


def test_zero_multiplication_module_is_crossed():
    R = PolyRing(["x", "y"])
    A = R.extend(["m1", "m2"], [1, 1])
    gens = [A.var("m1"), A.var("m2")]
    rels = Ideal(A, [g * h for g in gens for h in gens])
    cm = CrossedModule(
        top=Subquotient(Ideal(A, gens), rels),
        bnd=RingHom.from_map(A, R, {"m1": R.zero, "m2": R.zero}),
        lift=RingHom.from_map(R, A, {}))
    assert verify_xmod(cm).ok


def test_ideal_inclusion_is_crossed():
    R = PolyRing(["x", "y"])
    I = Ideal(R, ["x^2", "y"])
    cm = CrossedModule(
        top=Subquotient(I, Ideal(R, [])),
        bnd=RingHom.identity(R), lift=RingHom.identity(R))
    assert verify_xmod(cm).ok


@pytest.mark.parametrize("which,level", [
    (w, l) for w in ("a", "b", "c") for l in (0, 1, 2)])
def test_square_axioms_all_fixtures_and_levels(which, level, data_a, data_b,
                                               data_c):
    data = {"a": data_a, "b": data_b, "c": data_c}[which]
    skel = build_skeleton(data.truncate(level))
    rep = verify_square(functor_M(skel, 2))
    assert rep.ok, rep.to_obj()
    for item in rep.items:
        if not item["informational"]:
            assert item["witness"] == "0"
    repx = verify_xmod(functor_M(skel, 1))
    assert repx.ok


def test_functor_level0_skeleton_gives_trivial_square(data_c):
    skel = build_skeleton(data_c.truncate(0))
    sq = functor_M(skel, 2)
    assert not sq.top.gens and not sq.left.gens and not sq.right.gens
    assert sq.left.ring.vars == sq.right.ring.vars == ("x", "y")


def test_functor_pi0(skel_a, skel_b):
    q = functor_M(skel_a, 0)
    assert [str(b) for b in q.groebner()] == ["x^2"]
    assert affine_hilbert(q, 6) == (1, 2, 2, 2, 2, 2, 2)
    qb = functor_M(skel_b, 0)
    assert set(str(b) for b in qb.groebner()) == {"x^2", "x*y"}


def test_functor_stability_under_skeleton_growth(data_c):
    # adding the level-2 generators does not change the objects at n <= 1
    sk1 = build_skeleton(data_c.truncate(1))
    sk2 = build_skeleton(data_c)
    assert ideal_equal(functor_M(sk1, 0), functor_M(sk2, 0))
    cm1, cm2 = functor_M(sk1, 1), functor_M(sk2, 1)
    assert cm1.top.ambient == cm2.top.ambient
    assert cm1.top.rels.groebner() == cm2.top.rels.groebner()
    assert [cm1.bnd(g) for g in cm1.top.gens] == \
        [cm2.bnd(g) for g in cm2.top.gens]


def test_square_corner_identifications(skel_a, skel_c):
    sq = functor_M(skel_a, 2)
    assert [str(g) for g in sq.left.gens] == ["S"]
    assert [str(g) for g in sq.right.gens] == ["-x^2 + S"]
    # without level-2 generators the top corner is the tensor of the two
    # corners up to filtered dimensions
    E1 = skel_a.E1
    pres = TensorPresentation(Ideal(E1, ["S"]), Ideal(E1, ["S - x^2"]))
    assert sq.top.dims(6) == pres.top.dims(6)
    # a level-2 generator is a generator of the top corner
    assert skel_c.E2.var("T") in functor_M(skel_c, 2).top.gens


@pytest.mark.parametrize("which", ["a", "b", "c", "d4f"])
def test_square_corners_are_the_skeleton_corner_ideals(which, skel_a, skel_b,
                                                       skel_c, skel_d4f):
    skel = {"a": skel_a, "b": skel_b, "c": skel_c, "d4f": skel_d4f}[which]
    sq = functor_M(skel, 2)
    assert sq.left is skel.corners[0] and sq.right is skel.corners[1]
    # and so are those of the skeleton's tensor presentation
    pres = kernel_tensor(skel)
    assert pres.left is skel.corners[0] and pres.right is skel.corners[1]
    # the level-1 Moore kernels have the reduced bases of the corners
    moore = skel.moore()
    assert sq.left.groebner() == moore.ne1.groebner()
    assert sq.right.groebner() == moore.kbar.groebner()


def test_square_refuses_corners_in_two_rings(skel_a, skel_b):
    sq = functor_M(skel_a, 2)
    with pytest.raises(ValueError, match="one base ring"):
        CrossedSquare(top=sq.top, left=sq.left,
                      right=functor_M(skel_b, 2).right, bnd=sq.bnd,
                      lift=sq.lift, pair=sq.pair)


def test_h_eval_examples(skel_a):
    sq = functor_M(skel_a, 2)
    E1 = skel_a.E1
    S = E1.var("S")
    nbar = E1.parse("S - x^2")
    assert h_eval(sq, E1.zero, nbar).is_zero()
    golden = skel_a.E2.parse("-s0_S*s1_S + s1_S^2")
    assert h_eval(sq, S, nbar) == golden
    for r in (2, -5):
        assert h_eval(sq, S * QQ.coerce(r), nbar) == \
            h_eval(sq, S, nbar) * QQ.coerce(r)
    with pytest.raises(ValueError):
        h_eval(sq, E1.one, nbar)
    with pytest.raises(ValueError):
        h_eval(sq, S, E1.var("S"))


def test_square_kernel_identification(skel_c):
    # classes killed by the boundary are exactly the ones counted by the
    # second homotopy module, by construction on this representation
    sq = functor_M(skel_c, 2)
    for g in sq.top.gens:
        img = sq.bnd(g)
        assert sq.left.member(img) and sq.right.member(img)


def test_sabotaged_square_fails_exactly_axiom5(skel_a):
    rep = verify_square(functor_M(skel_a, 2, break_h=True))
    assert not rep.ok
    assert {i["check"] for i in rep.failures()} == {"ax5-top-pairing"}


def test_repeated_middle_variant_differs(skel_a):
    rep = verify_square(functor_M(skel_a, 2))
    info = [i for i in rep.items if i["check"] == "ax10-repeated-middle"]
    assert info and not any(i["status"] == "pass" for i in info)


def test_verify_report_serialization(skel_a):
    rep = verify_square(functor_M(skel_a, 2))
    obj = rep.to_obj()
    assert obj["ok"] is True
    assert all(set(i) == {"check", "instance", "status", "witness",
                          "informational"} for i in obj["items"])
