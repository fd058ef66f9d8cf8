import json
import sys
from pathlib import Path

import pytest

from xsq import (GF, ConstructionData, Ideal, QQ, affine_hilbert, aq_h2,
                 aq_h2_witness, build_skeleton, compare_XY, homotopy_report,
                 peiffer_P2, pi0, pi1, pi2)
from xsq import cli, linalg

from .conftest import input_data
from .oracle import face_kernel_dims, truncated


def test_pi0_rows(skel_a, skel_b, skel_c):
    q = pi0(skel_a)
    assert list(affine_hilbert(q, 6)) == [1, 2, 2, 2, 2, 2, 2]
    qb = pi0(skel_b)
    assert set(str(b) for b in qb.groebner()) == {"x^2", "x*y"}
    # the level-1 ring modulo both corner ideals presents pi0 as well
    left, right = skel_c.corners
    corners = Ideal(skel_c.E1, list(left.gens) + list(right.gens))
    assert affine_hilbert(corners, 4) == affine_hilbert(pi0(skel_c), 4)
    empty = build_skeleton(ConstructionData(QQ, ["x"], [], []))
    assert pi0(empty).is_zero()


FROZEN_PI1 = {
    # computed by the truncated pair-term route and frozen; the ideal
    # route must reproduce them exactly.  f1 and f2 are over GF(32003),
    # d4f has two level-2 generators
    "a": [0, 0, 0, 0, 0, 0, 0],
    "b": [0, 0, 0, 1, 2, 3, 4],
    "c": [0, 0, 0, 0, 0, 0, 0],
    "f1": [0, 0, 0, 0, 0, 0, 0],
    "f2": [0, 0, 0, 1, 3, 6, 10],
    "d3": [0, 0, 0, 1, 2, 3, 4],
    "d4f": [0, 0, 0, 2, 6, 12, 20],
}


@pytest.mark.parametrize("which", list(FROZEN_PI1))
def test_pi1_routes_agree(which, skeleton):
    ideal_route, pair_route = pi1(skeleton(which), 6)
    assert ideal_route == pair_route
    assert list(ideal_route) == FROZEN_PI1[which]


def test_pi1_fixture_c_dominated_by_b(skel_b, skel_c):
    rows_b = pi1(skel_b, 6)[0]
    rows_c = pi1(skel_c, 6)[0]
    assert all(c <= b for b, c in zip(rows_b, rows_c))
    assert rows_c != rows_b  # the adjoined generator kills classes


def test_pi2_zero_skeleton(data_c):
    skel = build_skeleton(truncated(data_c, 0))
    assert list(pi2(skel, 4)) == [0] * 5


def test_pi2_against_truncated_kernel_oracle(skel_a, skel_c):
    # this is also the kernel identification for the square: the classes
    # of the top corner killed by the boundary are exactly the classes of
    # elements annihilated by every face, as filtered dimensions
    for skel, D in ((skel_a, 6), (skel_c, 5)):
        P2 = peiffer_P2(skel)
        oracle = face_kernel_dims(skel, D, P2.gens)
        assert list(pi2(skel, D)) == oracle


def test_pi2_fixture_c_frozen(skel_c):
    assert list(pi2(skel_c, 5)) == [0, 0, 0, 0, 1, 1]


def test_h2_fixture_a_zero(data_a):
    assert aq_h2(data_a, 8) == ((0,) * 9, (0,) * 9)
    assert aq_h2_witness(data_a) is None


def test_h2_fixture_b_routes_and_witness(data_b):
    syz_route, ker_route = aq_h2(data_b, 8)
    assert syz_route == ker_route
    assert list(syz_route) == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    w = aq_h2_witness(data_b)
    assert w is not None
    texts = tuple(str(p) for p in w)
    assert texts in (("y", "-x"), ("-y", "x"))


def test_h2_no_relations_is_zero():
    data = ConstructionData(QQ, ["x", "y"], [], [])
    assert aq_h2(data, 6) == ((0,) * 7, (0,) * 7)


@pytest.mark.parametrize("field, s1, expected", [
    (QQ, ["x"], [1, 2, 3, 4, 5]),
    (GF(7), ["x", "y"], [2, 6, 12, 20, 30]),
], ids=["Q-one-image", "GF7-two-images"])
def test_h2_of_zero_images_is_the_free_module(field, s1, expected):
    # when every boundary image is 0 each vector is a relation and no
    # alternating vector is nonzero: H2 is R^n, with witness (1, 0, ...)
    n = len(s1)
    data = ConstructionData(field, s1,
                            [("S%d" % i, "0") for i in range(n)], [])
    assert aq_h2(data, 4) == (tuple(expected), tuple(expected))
    assert [str(p) for p in aq_h2_witness(data, 4)] == ["1"] + ["0"] * (n - 1)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
def test_data_without_level1_generators_takes_the_general_path(field):
    # no boundary images: both routes of H2 and every homotopy row of the
    # split comparison vanish, and H2 has no witness
    data = ConstructionData(field, ["x", "y"], [], [])
    assert aq_h2(data, 8) == ((0,) * 9, (0,) * 9)
    assert aq_h2_witness(data, 8) is None
    split = compare_XY(build_skeleton(data), D=6)
    zeros = [0] * 7
    assert split["ok"]
    assert split["pi0"]["narrow"] == [1, 3, 6, 10, 15, 21, 28]
    for row in ("pi1", "pi2"):
        assert split[row] == {"wide": zeros, "narrow": zeros, "equal": True}


FROZEN_H2 = {
    # computed by the syzygy route and frozen; the kernel route must
    # reproduce them exactly.  The level-2 generators of c, f1, d3 and d4f
    # leave the presented quotient, and so its homology, as it is
    "a": [0] * 9,
    "b": [0, 1, 2, 3, 4, 5, 6, 7, 8],
    "c": [0, 1, 2, 3, 4, 5, 6, 7, 8],
    "f1": [0, 1, 3, 6, 10, 15, 21, 28, 36],
    "f2": [0, 1, 3, 6, 10, 15, 21, 28, 36],
    "d3": [0, 2, 5, 8, 11, 14, 17, 20, 23],
    "d4f": [0, 4, 13, 25, 41, 61, 85, 113, 145],
}


def test_h2_routes_agree_on_every_fixture(skeleton):
    for which, frozen in FROZEN_H2.items():
        syz_route, ker_route = aq_h2(skeleton(which).data, 8)
        assert syz_route == ker_route, which
        assert list(syz_route) == frozen, which


def test_h2_invariant_under_renaming_and_shuffles(data_b):
    renamed = ConstructionData(QQ, ["x", "y"],
                               [("U2", "x*y"), ("U1", "x^2")], [])
    assert aq_h2(renamed, 6) == aq_h2(data_b, 6)


def test_pi_invariance_under_renaming(data_c):
    renamed = ConstructionData(QQ, ["x", "y"],
                               [("B", "x*y"), ("A", "x^2")],
                               [("W", "y*A - x*B")])
    sk1 = build_skeleton(data_c)
    sk2 = build_skeleton(renamed)
    assert pi1(sk1, 5) == pi1(sk2, 5)
    assert pi2(sk1, 5) == pi2(sk2, 5)
    assert affine_hilbert(pi0(sk1), 5) == affine_hilbert(pi0(sk2), 5)


def test_homotopy_report_bundle(skel_b):
    obj = homotopy_report(skel_b, D=4)
    assert obj["pi1"]["routes_agree"] is True
    assert obj["aq_h2"]["routes_agree"] is True
    assert obj["aq_h2"]["witness"] in ("(y, -x)", "(-y, x)")


@pytest.mark.parametrize("which", ["a", "b"])
def test_split_comparison(which, skel_a, skel_b):
    skel = {"a": skel_a, "b": skel_b}[which]
    rep = compare_XY(skel, D=6)
    assert rep["ok"], rep
    assert not any(rep["kernel_homology"]["middle"])
    assert rep["pi0"]["wide"] == rep["pi0"]["narrow"]
    assert rep["pi1"]["wide"] == rep["pi1"]["narrow"]
    assert rep["pi2"]["wide"] == rep["pi2"]["narrow"]


def test_split_comparison_needs_no_level2_generators(skel_c):
    with pytest.raises(ValueError):
        compare_XY(skel_c, D=4)


def _rows(obj, path=()):
    """Every non-string leaf of a JSON report by its path: the dimension
    and rank rows and the verdicts, not the witness strings."""
    if isinstance(obj, dict):
        return {k: v for key in obj for k, v in _rows(obj[key],
                                                      path + (key,)).items()}
    if isinstance(obj, list) and not all(isinstance(v, int) for v in obj):
        return {k: v for i, val in enumerate(obj)
                for k, v in _rows(val, path + (i,)).items()}
    if isinstance(obj, str):
        return {}
    return {path: obj}


@pytest.mark.parametrize("command", ["homotopy", "compare"])
def test_rows_agree_over_q_and_a_prime_field(command, tmp_path, capsys):
    # fixture b has integer boundary images, so the rows over Q and over
    # GF(32003) agree; witnesses may differ, e.g. -x against 32002*x
    source = Path(__file__).resolve().parent.parent / "fixtures" / \
        "fixture_b.json"
    obj = json.loads(source.read_text())
    obj["field"] = {"Fp": 32003}
    fp_path = tmp_path / "fixture_b_gf32003.json"
    fp_path.write_text(json.dumps(obj))
    rows = []
    for path in (source, fp_path):
        assert cli.main([command, str(path), "--max-degree", "9",
                         "--format", "json"]) == 0
        rows.append(_rows(json.loads(capsys.readouterr().out)))
    assert sum(isinstance(v, list) for v in rows[0].values()) >= 4
    assert rows[0] == rows[1]


def _swept_spans(monkeypatch):
    """Wrap linalg.graded_span wherever an xsq module holds it; returns the
    list that records each call as (ring, D, the vectors swept)."""
    swept = []
    graded_span = linalg.graded_span

    def recording(vecs, fb):
        vecs = list(vecs)
        swept.append((fb.ring, fb.D,
                      frozenset(tuple(str(p) for p in v) for v in vecs)))
        return graded_span(vecs, fb)
    for name, module in list(sys.modules.items()):
        if name == "xsq" or name.startswith("xsq."):
            for key, value in list(vars(module).items()):
                if value is graded_span:
                    monkeypatch.setattr(module, key, recording)
    return swept


@pytest.mark.parametrize("command, inputs, sweeps", [
    ("compare", ("a", "b", "f2"), 4),
    ("homotopy", ("b", "f2"), 7),
])
def test_each_filtered_span_is_swept_once(command, inputs, sweeps,
                                          monkeypatch, tmp_path, capsys):
    # compare sweeps the right corner's basis once for its middle kernel
    # row and its wide pi1 row, and the two H2 routes share one alternating
    # span
    swept = _swept_spans(monkeypatch)
    for which in inputs:
        path = tmp_path / ("%s.json" % which)
        path.write_text(json.dumps(input_data(which).to_dict()))
        del swept[:]
        assert cli.main([command, str(path)]) == 0
        assert len(swept) == sweeps, which
        assert len(set(swept)) == sweeps, which
    capsys.readouterr()
