"""Over GF(p) a coefficient is a plain int in [0, p): every operation that
computes coefficients must leave them reduced, for p = 7, 32003 and
2^61 - 1, where residues and their products pass 64 bits.  Checked after
polynomial arithmetic, ring maps, Groebner bases, normal forms, cofactor
lifts and syzygies, and on the rows of echelon forms and of rref, among
them the negated rows that compare_XY builds.  Rings over different fields
refuse to mix, and no ring map changes the field."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from xsq import (GF, ConstructionData, Ideal, PolyRing, RingHom,
                 build_skeleton, compare_XY, syzygies)
from xsq.linalg import Echelon, rref

FIELDS = (GF(7), GF(32003), GF(2**61 - 1))
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def bad_terms(p):
    """The coefficients of the polynomial p that are not ints in [1, p)."""
    char = p.ring.field.char
    return [c for c in p.terms.values()
            if type(c) is not int or not 0 < c < char]


def bad_entries(values, char, zeros=False):
    """The values that are not ints in [0, char), or in [1, char) unless
    zeros are allowed."""
    low = 0 if zeros else 1
    return [x for x in values if type(x) is not int or not low <= x < char]


def coefficients(field):
    """Any int, and the residues next to 0, p/2 and p, coerced."""
    p = field.char
    return st.one_of(st.integers(-2**70, 2**70),
                     st.sampled_from([1, 2, p // 2, p // 2 + 1, p - 2, p - 1,
                                      -1, p + 1])).map(field.coerce)


@st.composite
def polys(draw, ring, max_terms=4, max_exp=2):
    n = len(ring.vars)
    p = ring.zero
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.tuples(*[st.integers(0, max_exp)] * n))
        p = p + ring.monomial(exps, draw(coefficients(ring.field)))
    return p


@st.composite
def cases(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 3))
    ring = PolyRing(("x", "y", "z")[:n], field,
                    order=draw(st.sampled_from(["wdegrevlex", "lex"])))
    return ring, draw(polys(ring)), draw(polys(ring))


@SETTINGS
@given(cases(), st.integers(-2**70, 2**70))
def test_arithmetic_leaves_residues(case, k):
    ring, P, Q = case
    results = [P + Q, P - Q, Q - P, -P, P * Q, P * P, P * k, k * Q]
    results += [P ** e for e in range(4)]
    assert [bad_terms(r) for r in results] == [[]] * len(results)


@SETTINGS
@given(cases(), st.data())
def test_ring_maps_leave_residues(case, data):
    R, P, _ = case
    S = PolyRing(("u", "v"), R.field)
    images = [data.draw(polys(S, max_terms=3)) for _ in R.vars]
    h = RingHom(R, S, images)
    first, second = h(P), h(P)  # the second from the map's memo
    assert bad_terms(first) == bad_terms(second) == []


@SETTINGS
@given(cases(), st.data())
def test_bases_normal_forms_lifts_and_syzygies_leave_residues(case, data):
    ring, P, Q = case
    gens = [g for g in (P, Q) if not g.is_zero()]
    if not gens:
        return
    I = Ideal(ring, gens)
    cofactors = [data.draw(polys(ring, max_terms=2)) for _ in I.gens]
    member = ring.zero
    for c, g in zip(cofactors, I.gens):
        member = member + c * g
    probe = data.draw(polys(ring))
    results = list(I.groebner()) + [I.normal_form(probe)]
    results += I.lift(member)
    results += [p for v in syzygies(I.gens, ring=ring) for p in v]
    assert [bad_terms(r) for r in results] == [[]] * len(results)


@st.composite
def matrices(draw):
    """(field, width, rows, probe): sparse rows of residues, some of them
    sums of earlier rows, and a probe vector."""
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), coefficients(field))
    vec = st.lists(entry, min_size=width, max_size=width)
    rows = draw(st.lists(vec, max_size=7))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 6),
                                        st.integers(0, 6)), max_size=2)):
        if i < len(rows) and j < len(rows):
            rows.append([field.coerce(a + b)
                         for a, b in zip(rows[i], rows[j])])
    return field, width, rows, draw(vec)


@SETTINGS
@given(matrices())
def test_echelon_and_rref_rows_are_residues(case):
    field, width, rows, probe = case
    char = field.char
    sparse = [dict(enumerate(r)) for r in rows]  # zero entries kept
    ech = Echelon(field)
    for r in sparse:
        ech.add(r)
    stored = [x for row in ech.rows.values() for _, x in row]
    assert bad_entries(stored, char) == []
    assert bad_entries(ech.reduce(dict(enumerate(probe))).values(),
                       char) == []
    basis = [x for v in ech.basis() for x in v.values()]
    assert bad_entries(basis, char) == []
    negated = [{c: -x for c, x in enumerate(r) if x} for r in rows]
    for given_rows in (sparse, negated):
        _, reduced = rref(given_rows, field)
        values = [x for r in reduced for x in r.values()]
        assert bad_entries(values, char, zeros=True) == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_compare_rows_are_residues(field):
    """The rref rows of what compare_XY sweeps, the doubled pi2 rows
    [-v, v] among them."""
    data = ConstructionData(field, ["x", "y"],
                            [("S1", "x^2"), ("S2", "x*y")], [])
    seen = []
    sweep = Echelon.sweep

    def spy(self, pieces):
        pieces = [list(piece) for piece in pieces]
        seen.append([v for piece in pieces for v in piece])
        return sweep(self, pieces)

    with mock.patch.object(Echelon, "sweep", spy):
        compare_XY(build_skeleton(data), 4)
    char = field.char
    assert any(x % char == char - 1 for rows in seen for r in rows
               for x in r.values())  # a negated unit
    reduced = [x for rows in seen for r in rref(rows, field)[1]
               for x in r.values()]
    assert reduced and bad_entries(reduced, char, zeros=True) == []


def test_prime_fields_refuse_to_mix():
    R7 = PolyRing(("x", "y"), GF(7))
    R11 = PolyRing(("x", "y"), GF(11))
    a, b = R7.parse("3*x + 5"), R11.parse("3*x + 5")
    assert a.terms == b.terms  # the same ints, in rings that differ
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ValueError):
        Ideal(R7, [b])
    with pytest.raises(ValueError):
        Ideal(R7, [a]).normal_form(b)
    with pytest.raises(ValueError):
        RingHom(R7, R11, R11.gens())
    RQ, R32003 = PolyRing(("x", "y")), PolyRing(("x", "y"), GF(32003))
    with pytest.raises(ValueError):
        RingHom(RQ, R32003, R32003.gens())
