"""Differential tests of the packed polynomial representation against a
small reference on exponent tuples: sums, products, powers, ring maps,
repacking into rings with another order, with more or fewer variables or
with the variables permuted, its refusal over another field, and the
printed form, over Q and GF(32003) in wdegrevlex, lex and ("block", k)
rings.  The arithmetic of the reference is written here, its order key
(``ref_key``) in tests/oracle.py.  The reference shares no code with xsq
beyond the coefficient fields, and reduces its GF(p) coefficients mod p
itself (char is the characteristic, 0 over Q).  A negative control
perturbs one image of a ring map and requires the comparison to report
it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xsq import GF, QQ, PolyRing, RingHom
from xsq.rings import reringed

from .oracle import ref_key

FIELDS = (QQ, GF(32003))
NAMES = ("x", "y", "z", "w")


# -- the reference: {exponent tuple: coefficient} dicts ----------------------


def ref_add(p, q, char):
    out = dict(p)
    for m, c in q.items():
        v = out[m] + c if m in out else c
        out[m] = v % char if char else v
        if not out[m]:
            del out[m]
    return out


def ref_mul(p, q, char):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            out = ref_add(out, {tuple(a + b for a, b in zip(m1, m2)): c1 * c2},
                          char)
    return out


def ref_pow(p, k, n, one, char):
    out = {(0,) * n: one}
    for _ in range(k):
        out = ref_mul(out, p, char)
    return out


def ref_substitute(p, images, n, one, char):
    """sum of c * prod(images[i] ** e_i), images in a ring on n
    variables."""
    out = {}
    for m, c in p.items():
        term = {(0,) * n: c}
        for img, e in zip(images, m):
            term = ref_mul(term, ref_pow(img, e, n, one, char), char)
        out = ref_add(out, term, char)
    return out


def ref_str(p, names, weights, order):
    """The printed form: terms in descending order, coefficient one
    omitted, signs joined as " + " and " - "."""
    if not p:
        return "0"
    chunks = []
    for m in sorted(p, key=lambda m: ref_key(m, weights, order),
                    reverse=True):
        body = [v if e == 1 else "%s^%d" % (v, e)
                for v, e in zip(names, m) if e]
        cs = str(p[m])
        neg = cs.startswith("-")
        cs = cs[1:] if neg else cs
        piece = "*".join(([] if cs == "1" and body else [cs]) + body)
        if chunks:
            chunks.append((" - " if neg else " + ") + piece)
        else:
            chunks.append("-" + piece if neg else piece)
    return "".join(chunks)


def packed(ring, p):
    out = ring.zero
    for m, c in p.items():
        out = out + ring.monomial(m, c)
    return out


# -- inputs -------------------------------------------------------------------


def orders(n):
    return ["wdegrevlex", "lex"] + [("block", k) for k in range(1, n)]


@st.composite
def rings(draw, field=None, n=None):
    field = draw(st.sampled_from(FIELDS)) if field is None else field
    n = draw(st.integers(2, 4)) if n is None else n
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n,
                                  max_size=n)))
    return PolyRing(NAMES[:n], field, weights,
                    draw(st.sampled_from(orders(n))))


@st.composite
def ref_polys(draw, ring, max_terms=4, max_exp=3):
    """A reference polynomial with small exponents and coefficients, some
    of them non-integral over Q."""
    n = len(ring.vars)
    coeffs = st.integers(-5, 5).filter(bool)
    if ring.field == QQ:
        coeffs = st.one_of(coeffs, st.builds(
            Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 4)))
    raw = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * n), coeffs,
        max_size=max_terms))
    return {m: ring.field.coerce(c) for m, c in raw.items()}


def differences(ring, p, q):
    """The arithmetic and printing of the packed forms of p and q against
    the reference; returns the names of the operations that differ."""
    n, one, char = len(ring.vars), ring.field.one, ring.field.char
    P, Q = packed(ring, p), packed(ring, q)
    neg = {m: -c % char if char else -c for m, c in q.items()}
    cases = [("p", P, p), ("sum", P + Q, ref_add(p, q, char)),
             ("difference", P - Q, ref_add(p, neg, char)),
             ("product", P * Q, ref_mul(p, q, char)),
             ("square", P * P, ref_mul(p, p, char))]
    cases += [("power %d" % k, P ** k, ref_pow(p, k, n, one, char))
              for k in range(4)]
    bad = []
    for name, got, want in cases:
        if (got.exponent_terms() != want
                or str(got) != ref_str(want, ring.vars, ring.weights,
                                       ring.order)):
            bad.append(name)
    descending = sorted(p, key=lambda m: ref_key(m, ring.weights,
                                                 ring.order), reverse=True)
    if list(P.exponent_terms()) != descending:
        bad.append("order")
    return bad


def hom_differences(h, p, images):
    """h applied twice to the packed form of p (the second time from the
    map's memo of monomial images) against the reference substitution of
    the images."""
    S = h.codomain
    want = ref_substitute(p, images, len(S.vars), S.field.one, S.field.char)
    P = packed(h.domain, p)
    return [k for k in range(2) if h(P).exponent_terms() != want]


# -- tests --------------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_arithmetic_and_printing_match_the_reference(data):
    ring = data.draw(rings())
    p = data.draw(ref_polys(ring))
    q = data.draw(ref_polys(ring))
    assert differences(ring, p, q) == []


@st.composite
def hom_cases(draw):
    """(domain, codomain, reference images, p): images of up to three
    terms, zero among them, with exponents up to 2."""
    R = draw(rings(n=draw(st.integers(2, 3))))
    S = draw(rings(field=R.field, n=draw(st.integers(2, 3))))
    images = [draw(ref_polys(S, max_terms=3, max_exp=2)) for _ in R.vars]
    p = draw(ref_polys(R, max_exp=2))
    return R, S, images, p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hom_cases())
def test_ring_maps_match_the_reference(case):
    R, S, images, p = case
    h = RingHom(R, S, [packed(S, img) for img in images])
    assert hom_differences(h, p, images) == []


@settings(max_examples=50, deadline=None, derandomize=True)
@given(hom_cases())
def test_a_perturbed_image_is_caught(case):
    # negative control: the map sends the first variable to its image
    # plus one, so the comparison must report both applications to it
    R, S, images, _ = case
    wrong = [packed(S, images[0]) + S.one] + [packed(S, img)
                                              for img in images[1:]]
    x = (1,) + (0,) * (len(R.vars) - 1)
    assert hom_differences(RingHom(R, S, wrong), {x: R.field.one},
                           images) == [0, 1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_repacking_keeps_the_exponents(data):
    ring = data.draw(rings())
    p = data.draw(ref_polys(ring))
    P = packed(ring, p)
    for order in orders(len(ring.vars)):
        other = ring.with_order(order)
        Q = reringed(P, other)
        assert Q.ring == other and Q.exponent_terms() == p
        assert str(Q) == ref_str(p, ring.vars, ring.weights, order)
        assert reringed(Q, ring) == P
    # onto the ring of the variables p uses, and refused onto fewer
    used = [v for i, v in enumerate(ring.vars) if any(m[i] for m in p)]
    sub = ring.drop_to(used)
    keep = [ring.vars.index(v) for v in used]
    assert reringed(P, sub).exponent_terms() == {
        tuple(m[i] for i in keep): c for m, c in p.items()}
    if used:
        with pytest.raises(ValueError):
            reringed(P, ring.drop_to(used[1:]))
    # onto one more variable, as the map that fixes every variable
    wide = ring.extend(("v",), (1,))
    assert reringed(P, wide) == RingHom.from_map(ring, wide, {})(P)
    assert reringed(P, wide).exponent_terms() == {
        m + (0,): c for m, c in p.items()}
    # onto a permutation of the variables, and back
    perm = data.draw(st.permutations(range(len(ring.vars))))
    shuffled = PolyRing([ring.vars[i] for i in perm], ring.field,
                        [ring.weights[i] for i in perm], ring.order)
    Q = reringed(P, shuffled)
    assert Q.exponent_terms() == {tuple(m[i] for i in perm): c
                                  for m, c in p.items()}
    assert reringed(Q, ring) == P
    # refused onto the same variables over another field
    field = GF(32003) if ring.field == QQ else QQ
    with pytest.raises(ValueError):
        reringed(P, PolyRing(ring.vars, field, ring.weights, ring.order))
