"""Each ideal derived from a skeleton is computed once per command."""

import sys
from collections import Counter
from pathlib import Path

import pytest

from xsq import (build_skeleton, cli, crossed, groebner, peiffer_P2,
                 simplicial, tensor)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _record_calls(monkeypatch, module, name, record):
    """Rebind module.name wherever an xsq module holds it, so that each
    call passes its result and arguments to record."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(result, *args)
        return result

    for modname, mod in list(sys.modules.items()):
        if modname == "xsq" or modname.startswith("xsq."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, wrapper)


def _run(command, fixture, *flags):
    path = str(FIXTURES / ("%s.json" % fixture))
    return cli.main([command, path, *flags])


def test_homotopy_builds_p2_and_the_last_face_kernel_once(monkeypatch,
                                                          capsys):
    skels, p2_calls, kernels = [], [], []
    _record_calls(monkeypatch, simplicial, "build_skeleton",
                  lambda skel, *args: skels.append(skel))
    _record_calls(monkeypatch, simplicial, "peiffer_P2",
                  lambda ideal, *args: p2_calls.append(args))
    _record_calls(monkeypatch, groebner, "hom_kernel",
                  lambda ideal, h, *args: kernels.append(h))
    assert _run("homotopy", "fixture_c") == 0
    capsys.readouterr()
    assert len(skels) == 1 and len(p2_calls) == 1
    assert sum(h is skels[0].face[(2, 2)] for h in kernels) == 1


@pytest.mark.parametrize("flags, expected", [
    ((), {"wdegrevlex": 1}),
    (("--order", "lex"), {"wdegrevlex": 1, "lex": 1}),
])
def test_build_computes_the_p2_basis_once_per_order(monkeypatch, capsys,
                                                    data_c, flags, expected):
    def key(gens):
        return frozenset(frozenset(g.exponent_terms().items())
                         for g in gens)

    p2_key = key(peiffer_P2(build_skeleton(data_c)).gens)
    orders = Counter()

    def record(result, gens, ring, *args):
        # the engine's generators are packed terms of its work ring
        if key(groebner._polynomial(ring, g) for g in gens) == p2_key:
            orders[ring.order] += 1

    _record_calls(monkeypatch, groebner, "_buchberger", record)
    assert _run("build", "fixture_c", *flags) == 0
    capsys.readouterr()
    assert orders == expected


def test_verify_builds_one_skeleton_per_distinct_truncation(monkeypatch,
                                                            capsys):
    # fixture b has no level-2 generators, so levels 1 and 2 share one
    # skeleton, its Peiffer ideal and its crossed module
    skels, p2_calls, xmods = [], [], []
    _record_calls(monkeypatch, simplicial, "build_skeleton",
                  lambda skel, *args: skels.append(skel))
    _record_calls(monkeypatch, simplicial, "peiffer_P2",
                  lambda ideal, *args: p2_calls.append(args))
    _record_calls(monkeypatch, crossed, "free_crossed_on",
                  lambda cm, *args: xmods.append(cm))
    assert _run("verify", "fixture_b") == 0
    capsys.readouterr()
    assert len(skels) == 2 and len(p2_calls) == 2 and len(xmods) == 2


@pytest.mark.parametrize("fixture", ["fixture_a", "fixture_b", "fixture_c"])
@pytest.mark.parametrize("command", ["build", "homotopy"])
def test_no_basis_is_computed_twice(monkeypatch, capsys, command, fixture):
    # keyed like the benchmark's tracer: (ring, order, generator set), one
    # count per call that finds no cached basis (or no cofactor rows when
    # it needs them); the Moore kernels come out of the elimination with
    # their bases, so no kernel is computed again
    computed = groebner.Ideal._computed
    counts = Counter()

    def counting(ideal, order=None, track=False):
        tag = ideal.ring.order if order is None else order
        hit = ideal._cache.get(tag)
        if hit is None or (track and hit[2] is None):
            counts[(ideal.ring, tag, frozenset(ideal.gens))] += 1
        return computed(ideal, order, track=track)

    monkeypatch.setattr(groebner.Ideal, "_computed", counting)
    assert _run(command, fixture) == 0
    capsys.readouterr()
    assert counts and max(counts.values()) == 1


def test_compare_builds_the_kernel_tensor_once(monkeypatch, capsys):
    calls = []
    _record_calls(monkeypatch, tensor, "TensorPresentation",
                  lambda pres, *args: calls.append(args))
    assert _run("compare", "fixture_b") == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_redundant_generators_do_not_join_the_basis(monkeypatch, capsys):
    # a generator joins a basis (and its pairs are updated) only when it
    # does not reduce to zero against the basis so far: the four commands
    # on fixture c make 431 Gebauer-Moller updates, 899 when every
    # generator joined up front
    update = groebner._update
    calls = []

    def counting(*args):
        calls.append(args[0])
        return update(*args)

    monkeypatch.setattr(groebner, "_update", counting)
    for command in ("build", "verify", "homotopy", "compare"):
        assert _run(command, "fixture_c") == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 450


def test_the_budget_applies_to_the_reported_p2_basis(capsys):
    # the budget covers the whole command, the reported P2 basis included
    assert _run("build", "fixture_c", "--budget", "300") == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: step budget of 300 reductions exceeded\n"
