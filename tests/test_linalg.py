"""Sparse semi-echelon linear algebra against a naive dense Gauss-Jordan
elimination, on derandomized sparse matrices over Q and GF(32003), and the
graded sweeps against a per-degree rebuild of every filtered row.  The
engine takes rows as dicts; a row here keeps its zero entries, which the
engine must drop."""

import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from xsq import (GF, QQ, Ideal, aq_h2, cli, compare_XY, linalg, pi1,
                 syzygies)
from xsq.groebner import hom_kernel
from xsq.homotopy import _koszul_vectors
from xsq.linalg import (Echelon, FilteredBasis, graded_span, nullity, rref,
                        truncated_ideal_span)
from xsq.rings import reringed
from xsq.tensor import TensorPresentation

from .oracle import monomials_upto

FIELDS = (QQ, GF(32003))


def row(vec):
    """A dense vector as a sparse row that keeps its zero entries."""
    return dict(enumerate(vec))


def nonzero(vec):
    return {c: x for c, x in enumerate(vec) if x}


def dense(rows, width, field):
    return [[r.get(c, field.zero) for c in range(width)] for r in rows]


def naive_rref(rows, field):
    """Dense Gauss-Jordan: (pivot columns, fully reduced nonzero rows),
    every entry reduced mod p over GF(p)."""
    p = field.char
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    pivots = []
    for col in range(width):
        top = len(pivots)
        for i in range(top, len(rows)):
            if rows[i][col]:
                rows[top], rows[i] = rows[i], rows[top]
                break
        else:
            continue
        inv = field.inv(rows[top][col])
        rows[top] = [x * inv % p if p else x * inv for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p if p else a - f * b
                           for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
    return pivots, rows[:len(pivots)]


def naive_rank(rows, field):
    return len(naive_rref(rows, field)[0])


def naive_nf(vec, rows, field):
    """vec reduced by the dense reduced echelon form of rows, as a dict of
    its nonzero entries."""
    p = field.char
    v = list(vec)
    for col, r in zip(*naive_rref(rows, field)):
        if v[col]:
            f = v[col]
            v = [(a - f * b) % p if p else a - f * b for a, b in zip(v, r)]
    return {c: x for c, x in enumerate(v) if x}


ENTRIES = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                    st.fractions(-3, 3, max_denominator=3))


@st.composite
def matrices(draw):
    """(field, width, rows, probe): up to 8 sparse rows of width 0-7, some
    of them sums of earlier rows, and one probe vector."""
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(0, 7))
    vec = st.lists(ENTRIES, min_size=width, max_size=width).map(
        lambda xs: [field.coerce(x) for x in xs])
    rows = draw(st.lists(vec, max_size=8))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                              max_size=2)):
        if i < len(rows) and j < len(rows):
            rows.append([field.coerce(a + b)
                         for a, b in zip(rows[i], rows[j])])
    return field, width, rows, draw(vec)


SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@SETTINGS
@given(matrices())
def test_rref_equals_dense_gauss_jordan(case):
    field, _, rows, _ = case
    pivots, reduced = naive_rref(rows, field)
    assert rref(list(map(row, rows)), field) == (pivots,
                                                 list(map(nonzero, reduced)))


@SETTINGS
@given(matrices())
def test_echelon_rank_and_contains(case):
    field, width, rows, probe = case
    ech = Echelon(field)
    grew = [ech.add(row(r)) for r in rows]
    rank = naive_rank(rows, field)
    assert ech.rank == sum(grew) == rank
    assert all(ech.contains(row(r)) for r in rows)
    assert ech.contains(row(probe)) == (
        naive_rank(rows + [probe], field) == rank)


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_reduce_is_the_normal_form_for_any_insertion_order(case, rnd):
    field, width, rows, probe = case
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    forms = []
    for order in (rows, shuffled):
        ech = Echelon(field)
        for r in order:
            ech.add(row(r))
        forms.append(ech.reduce(row(probe)))
        assert ech.reduce(nonzero(probe)) == forms[-1]
    assert forms[0] == forms[1] == naive_nf(probe, rows, field)


@st.composite
def swept_pieces(draw):
    """(field, pieces): the rows of a matrix with a zero row and a repeated
    row put in, shuffled and cut into consecutive pieces, some empty."""
    field, width, rows, _ = draw(matrices())
    rows.append([field.zero] * width)
    rows.append(draw(st.sampled_from(rows)))
    rows = draw(st.permutations(rows))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    ends = [0, *cuts, len(rows)]
    return field, [rows[a:b] for a, b in zip(ends, ends[1:])]


@SETTINGS
@given(swept_pieces())
def test_sweep_equals_per_degree_rebuild(case):
    field, pieces = case
    ech = Echelon(field)
    nullities = ech.sweep([map(row, piece) for piece in pieces])
    upto = [[row(r) for piece in pieces[:d + 1] for r in piece]
            for d in range(len(pieces))]
    assert nullities == [nullity(rows, field) for rows in upto]
    assert ech.ranks == [len(rref(rows, field)[0]) for rows in upto]


@SETTINGS
@given(matrices())
def test_nullity_is_rows_minus_rank(case):
    field, _, rows, _ = case
    assert nullity(list(map(row, rows)), field) == (
        len(rows) - naive_rank(rows, field))


def test_empty_and_zero_width():
    for field in FIELDS:
        assert rref([], field) == ([], [])
        assert rref([{}, {}], field) == ([], [])
        assert nullity([], field) == 0
        assert nullity([{}, {}, {}], field) == 3
        assert nullity([row([field.zero] * 3)] * 2, field) == 2
        ech = Echelon(field)
        assert not ech.add({}) and ech.contains({}) and ech.rank == 0
        assert ech.reduce({}) == {}


# -- graded sweeps against the per-degree rebuild ---------------------------


def rebuild_ranks(vecs, ring, D, top=None):
    """Rank of the degree-d multiples of module vectors for d = 0..D, each
    from scratch in the basis of the degree-d piece."""
    ranks = []
    for d in range(D + 1):
        fb = FilteredBasis(ring, d)
        width = len(fb) * max(map(len, vecs), default=0)
        rows = []
        for v in vecs:
            t = max(p.wdeg() for p in v)
            if t < 0:
                continue
            t = t if top is None else top
            for m in (monomials_upto(ring, d - t) if t <= d else []):
                shifted = [p * ring.monomial(m) for p in v]
                rows.append(fb.coords(shifted))
        ranks.append(naive_rank(dense(rows, width, ring.field), ring.field))
    return ranks


def sweep_cases(skel, D):
    """Every family of vectors a filtered row of homotopy or compare sweeps,
    as (name, vectors, ring, degree bound, common top degree)."""
    data, E1, R = skel.data, skel.E1, skel.base
    moore = skel.moore()
    image = Ideal(E1, [skel.face[(2, 2)](g) for g in moore.ne2.gens])
    left, right = moore.ne1.groebner(), moore.kbar.groebner()
    t = dict(skel.data.s2)
    m_gens = [E1.var(v) for v in data.s2_names]
    n_gens = [E1.var(v) - reringed(t[v], E1) for v in data.s2_names]
    pres = TensorPresentation(Ideal(E1, m_gens), Ideal(E1, n_gens))
    M = Ideal(E1, m_gens).groebner()
    N = Ideal(E1, n_gens).groebner()
    lam = Ideal(E1, [pres.bnd(g) for g in pres.symbols]).groebner()
    ker = hom_kernel(skel.face[(1, 1)]).groebner()
    polys = {"left": left, "right": right, "left+right": left + right,
             "image": image.groebner(), "M": M, "N": N, "M+N": M + N,
             "lam": lam, "ker d1": ker}
    cases = [(name, [(g,) for g in gens], E1, D, None)
             for name, gens in polys.items()]
    images = list(data.boundary_images)
    top = max(p.wdeg() for p in images)
    cases += [("syzygies", list(syzygies(tuple(images), ring=R)), R, D + 2,
               None),
              ("koszul", _koszul_vectors(images, R), R, D + 2, None),
              ("kernel rows", [(p,) for p in images], R, D + 2 + top, top)]
    return cases


def test_graded_sweeps_equal_per_degree_rebuild(skel_a, skel_b):
    D = 6
    for skel in (skel_a, skel_b):
        for name, vecs, ring, bound, top in sweep_cases(skel, D):
            if top is not None:
                continue  # the kernel rows: aq_h2's route, pinned below
            swept = graded_span(vecs, FilteredBasis(ring, bound))
            assert swept.ranks == rebuild_ranks(vecs, ring, bound), name
            if all(len(v) == 1 for v in vecs):
                gens = [v[0] for v in vecs]
                span = truncated_ideal_span(gens, FilteredBasis(ring, bound))
                assert span.ranks == swept.ranks, name


def test_filtered_rows_equal_per_degree_rebuild(skel_a, skel_b):
    D = 6
    for skel in (skel_a, skel_b):
        ranks = {name: rebuild_ranks(vecs, ring, bound, top)
                 for name, vecs, ring, bound, top in sweep_cases(skel, D)}
        pair = [a + b - c - e for a, b, c, e in zip(
            ranks["left"], ranks["right"], ranks["left+right"],
            ranks["image"])]
        assert list(pi1(skel, D, "pair")) == pair
        rep = compare_XY(skel, D)
        assert rep["kernel_homology"]["bottom"] == [
            a - b for a, b in zip(ranks["ker d1"], ranks["N"])]
        wide = [a + b - c - e for a, b, c, e in zip(
            ranks["M"], ranks["N"], ranks["M+N"], ranks["lam"])]
        if rep["pi1"]["narrow"] != [0] * (D + 1):
            assert rep["pi1"]["wide"] == wide
        images = list(skel.data.boundary_images)
        n, top = len(images), max(p.wdeg() for p in images)
        R = skel.base
        koszul = ranks["koszul"]
        syz = [a - b for a, b in zip(ranks["syzygies"], koszul)]
        assert list(aq_h2(skel.data, "syzygy", D + 2)) == syz
        kernel = [n * len(monomials_upto(R, d)) - ranks["kernel rows"][top + d]
                  - koszul[d] for d in range(D + 3)]
        assert list(aq_h2(skel.data, "kernel", D + 2)) == kernel


# -- the functions a traced benchmark run expects to fire --------------------


TRACED = ("rref", "Echelon.add", "Echelon.reduce", "Echelon.contains",
          "truncated_ideal_span")


def test_homotopy_and_compare_call_every_traced_function(monkeypatch,
                                                         capsys):
    """xsqbench/run.py --trace 1 wraps these functions and reports a run as
    incorrect when one of them never fires, so homotopy and compare must go
    through each of them."""
    calls = dict.fromkeys(TRACED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED:
        owner, _, attr = name.rpartition(".")
        if owner:
            monkeypatch.setattr(Echelon, attr,
                                counting(name, getattr(Echelon, attr)))
            continue
        # rebind every module attribute that holds the function
        fn = getattr(linalg, name)
        for modname, module in list(sys.modules.items()):
            if modname == "xsq" or modname.startswith("xsq."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, counting(name, fn))
    for fixture in ("fixture_a", "fixture_b"):
        path = Path(__file__).resolve().parent.parent / "fixtures" / (
            "%s.json" % fixture)
        for command in ("homotopy", "compare"):
            assert cli.main([command, str(path)]) == 0
    capsys.readouterr()
    assert all(calls.values()), calls
