"""Acceptance suite: one criterion per test, one pass/fail line per
criterion on stdout (run with -s to watch them).

Fixture A: one base variable, one relation of weight two.
Fixture B: two base variables, relations x^2 and x*y.
Fixture C: B plus one level-2 generator killing the relation class.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from xsq import (Ideal, aq_h2, build_skeleton, compare_XY, compare_corner,
                 functor_M, peiffer_P1, peiffer_P2, pi1, pi2, verify_square,
                 verify_xmod)

from .oracle import (MacaulayNF, explicit_p2, face_kernel_dims, ideal_equal,
                     monomials_upto, s3_free_instances)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(number, name, ok):
    print("ACCEPTANCE %2d %-28s %s" % (number, name, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (number, name)


def _nf_agrees_with_oracle(ideal, ring, D=6):
    oracle = MacaulayNF(ideal.gens, ring, D)
    for m in monomials_upto(ring, D):
        p = ring.monomial(m)
        if ideal.normal_form(p) != oracle.nf(p):
            return False
    return True


def test_criterion_1_gb_soundness(data_a, data_b, data_c,
                                  skel_a, skel_b, skel_c):
    ok = True
    for data, skel in ((data_a, skel_a), (data_b, skel_b), (data_c, skel_c)):
        moore = skel.moore()
        ideals = [
            (peiffer_P1(data), data.ring1),
            (moore.ne2, skel.E2),
            (peiffer_P2(skel), skel.E2),
        ]
        for ideal, ring in ideals:
            start = time.monotonic()
            agrees = _nf_agrees_with_oracle(ideal, ring, D=6)
            elapsed = time.monotonic() - start
            ok = ok and agrees and elapsed < 10.0
    report(1, "normal forms vs oracle", ok)


def test_criterion_2_axiom_suites(data_a, data_b, data_c):
    ok = True
    for data in (data_a, data_b, data_c):
        for level in (0, 1, 2):
            skel = build_skeleton(data.truncate(level))
            rep1 = verify_xmod(functor_M(skel, 1))
            rep2 = verify_square(functor_M(skel, 2))
            ok = ok and rep1.ok and rep2.ok
            ok = ok and all(i["witness"] == "0" for i in rep1.items)
            ok = ok and all(i["witness"] == "0" for i in rep2.items
                            if not i["informational"])
    # negative control: zeroing the top pairing fails exactly axiom 5
    skel = build_skeleton(data_a)
    broken = verify_square(functor_M(skel, 2, break_h=True))
    checks = {i["check"] for i in broken.failures()}
    ok = ok and not broken.ok and checks == {"ax5-top-pairing"}
    report(2, "axiom suites + control", ok)


def test_criterion_3_tensor_reconstruction(skel_a, skel_b):
    ok = True
    for skel in (skel_a, skel_b):
        start = time.monotonic()
        rep = compare_corner(skel, D=6)
        elapsed = time.monotonic() - start
        ok = (ok and rep["ok"] and rep["hilbert"]["equal"]
              and elapsed < 60.0)
    report(3, "tensor corner (degrees 0-6)", ok)


def test_criterion_4_assembly_reconstruction(skel_c):
    rep = compare_corner(skel_c, D=5)
    ok = rep["ok"] and rep["hilbert"]["equal"]
    report(4, "assembled corner (degrees 0-5)", ok)


def test_criterion_5_second_homology(data_a, data_b):
    rows_a_syz = aq_h2(data_a, "syzygy", 8)
    rows_a_ker = aq_h2(data_a, "kernel", 8)
    # oracle for fixture B: the relation module is free on (y, -x) and the
    # alternating part is x times it, so degree d holds the classes
    # u*(y,-x) with deg(u) <= d-1 and u free of x: dimension d
    expected_b = [d for d in range(9)]
    rows_b_syz = aq_h2(data_b, "syzygy", 8)
    rows_b_ker = aq_h2(data_b, "kernel", 8)
    ok = (list(rows_a_syz) == [0] * 9
          and rows_a_syz == rows_a_ker
          and list(rows_b_syz) == expected_b
          and rows_b_syz == rows_b_ker)
    report(5, "second homology rows", ok)


def test_criterion_6_homotopy_cross_routes(skel_a, skel_b, skel_c):
    ok = True
    for skel in (skel_a, skel_b, skel_c):
        ok = ok and pi1(skel, 6, "ideal") == pi1(skel, 6, "pair")
    oracle = face_kernel_dims(skel_c, 5, peiffer_P2(skel_c).gens)
    ok = ok and list(pi2(skel_c, 5)) == oracle
    report(6, "homotopy route agreement", ok)


def test_criterion_7_peiffer_route_equality(skel_c):
    full = peiffer_P2(skel_c)
    d3 = skel_c.face[(3, 3)]
    s3_free = [d3(z) for z in s3_free_instances(skel_c)]
    ok = ideal_equal(full, Ideal(skel_c.E2, explicit_p2(skel_c) + s3_free))
    report(7, "level-2 ideal route equality", ok)


def test_criterion_8_split_comparison(skel_a, skel_b):
    ok = True
    for skel in (skel_a, skel_b):
        rep = compare_XY(skel, D=6)
        ok = ok and rep["ok"]
        ok = ok and not any(rep["kernel_homology"]["middle"])
        ok = ok and not any(rep["kernel_homology"]["bottom"])
        ok = ok and rep["pi0"]["wide"] == rep["pi0"]["narrow"]
        ok = ok and rep["pi1"]["wide"] == rep["pi1"]["narrow"]
        ok = ok and rep["pi2"]["wide"] == rep["pi2"]["narrow"]
    report(8, "split epimorphism", ok)


def test_criterion_9_stability(data_c):
    """The functor at n does not change when the skeleton grows beyond
    n+1.  Levels 0 and 1 of the tower only read the truncation below the
    added generators, so independently built skeletons must yield equal
    presentations; the pair (0,1) also crosses the level where the
    level-2 generators enter."""
    sk1 = build_skeleton(data_c.truncate(1))
    sk2 = build_skeleton(data_c)
    sk2_again = build_skeleton(data_c)  # stands in for level 3
    ok = ideal_equal(functor_M(sk1, 0), functor_M(sk2, 0))
    ok = ok and ideal_equal(functor_M(sk2, 0), functor_M(sk2_again, 0))

    def xmod_presentation(cm):
        return (cm.top.ambient.vars,
                tuple(str(g) for g in cm.top.rels.groebner()),
                tuple(str(cm.bnd(g)) for g in cm.top.gens))

    ok = ok and xmod_presentation(functor_M(sk2, 1)) \
        == xmod_presentation(functor_M(sk2_again, 1))
    ok = ok and xmod_presentation(functor_M(sk1, 1)) \
        == xmod_presentation(functor_M(sk2, 1))
    report(9, "skeleton stability", ok)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_criterion_10_determinism(fmt):
    ok = True
    for fixture in ("fixture_a", "fixture_b", "fixture_c"):
        path = str(FIXTURES / ("%s.json" % fixture))
        for command in ("build", "verify", "homotopy", "compare"):
            args = [sys.executable, "-m", "xsq.cli", command, path,
                    "--format", fmt]
            if command in ("homotopy", "compare"):
                args += ["--max-degree", "4"]
            first = subprocess.run(args, capture_output=True)
            second = subprocess.run(args, capture_output=True)
            ok = ok and first.stdout == second.stdout
            ok = ok and first.returncode == second.returncode == 0
            if fmt == "json" and ok:
                obj = json.loads(first.stdout)
                redump = json.dumps(obj, indent=2, sort_keys=True) + "\n"
                ok = ok and redump.encode() == first.stdout
    report(10, "byte-identical runs (%s)" % fmt, ok)
