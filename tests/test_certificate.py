"""The basis certificate of ``oracle.certify`` on the bases the commands
reach: every reduced basis that ``Ideal._computed`` returns and every basis
that ``eliminate`` seeds, while build, verify, homotopy and compare run in
process on fixtures a-c and d3, and, marked slow (``pytest -m slow``), on
d4f and d5.  Each basis is certified with the cofactor rows of a fresh
tracked computation, which must reach the same basis.  The certificate must
refuse a basis with one element dropped and one with a tail coefficient
doubled (the inputs are over Q), on every basis of at most 30 elements."""

import contextlib
import io
from pathlib import Path
from unittest import mock

import pytest

from xsq import QQ, Ideal, PolyRing, cli, groebner
from xsq.rings import Polynomial, reringed

from .oracle import certify

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INPUTS = ("fixture_a", "fixture_b", "fixture_c", "d3")


def reach(inputs):
    """({(ring, generators): basis} of every basis computed or seeded while
    the four commands run on the inputs, and the keys of the seeded ones)."""
    bases, seeded = {}, set()
    computed, eliminate = Ideal._computed, groebner.eliminate

    def recording_computed(self, order=None, *, track=False):
        hit = computed(self, order, track=track)
        work = hit[0]
        bases.setdefault((work, tuple(reringed(g, work) for g in self.gens)),
                         hit[1])
        return hit

    def recording_eliminate(I, drop):
        K = eliminate(I, drop)
        if K._cache:
            key = (K.ring, K.gens)
            bases.setdefault(key, K._cache[K.ring.order][1])
            seeded.add(key)
        return K

    with mock.patch.object(Ideal, "_computed", recording_computed), \
            mock.patch.object(groebner, "eliminate", recording_eliminate), \
            contextlib.redirect_stdout(io.StringIO()):
        for name in inputs:
            for command in ("build", "verify", "homotopy", "compare"):
                path = str(FIXTURES / ("%s.json" % name))
                assert cli.main([command, path]) == 0
    return bases, seeded


@pytest.fixture(scope="module")
def reached():
    return reach(INPUTS)


def certify_all(bases):
    """Certify every basis with the rows of a fresh tracked computation."""
    for (ring, gens), basis in bases.items():
        I = Ideal(ring, gens)
        work, fresh, rows = I._computed(track=True)[:3]
        assert fresh == basis
        rows = [[Polynomial(work, c) for c in row] for row in rows]
        assert certify(I.gens, basis, rows) == [], (ring, gens)


def refuse_all(bases):
    """Check that the certificate refuses both corruptions of every basis
    of at most 30 elements; returns how many had a tail to change."""
    refused = 0
    for (ring, gens), basis in bases.items():
        if len(basis) > 30:  # the few larger bases take seconds each
            continue
        if basis:
            assert certify(gens, basis[:-1])
        tails = [i for i, b in enumerate(basis) if len(b.terms) > 1]
        if tails:
            b = basis[tails[0]]
            M = min(b.terms, key=ring.packing.key)
            changed = Polynomial(ring, {**b.terms, M: 2 * b.terms[M]})
            assert certify(gens, basis[:tails[0]] + (changed,)
                           + basis[tails[0] + 1:])
            refused += 1
    return refused


def test_every_basis_the_commands_reach_is_certified(reached):
    bases, seeded = reached
    assert len(bases) > 100 and len(seeded) > 10
    certify_all(bases)


def test_a_dropped_element_or_a_changed_tail_is_refused(reached):
    assert refuse_all(reached[0]) > 50


@pytest.mark.slow
@pytest.mark.parametrize("name", ["d4f", "d5"])
def test_every_basis_a_scale_input_reaches_is_certified(name):
    bases, seeded = reach((name,))
    assert bases and seeded
    certify_all(bases)
    assert refuse_all(bases)


def test_the_rows_are_what_shows_a_basis_lies_in_the_ideal():
    R = PolyRing(["x", "y"], QQ)
    x2 = R.parse("x^2")
    x = R.parse("x")
    # (x) is a reduced basis whose ideal contains x^2, but not that of x^2
    assert certify([x2], [x]) == []
    assert certify([x2], [x], [[R.parse("y")]])
    assert certify([x2], [x2], [[R.one]]) == []
