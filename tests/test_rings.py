import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from xsq import GF, QQ, BudgetExceeded, ParseError, PolyRing, RingHom
from xsq.rings import MAX_EXPONENT, ExponentOverflow

from .oracle import ref_key


@pytest.fixture(scope="module")
def R():
    return PolyRing(["x", "y"])


def test_parse_two_terms(R):
    p = R.parse("x^2 - y*x")
    assert p.exponent_terms() == {(2, 0): 1, (1, 1): -1}


def test_parse_zero(R):
    assert R.parse("0").is_zero()
    assert R.parse("x - x").is_zero()


def test_parse_product_identity(R):
    assert R.parse("(x+y)*(x-y)") == R.parse("x^2 - y^2")


def test_parse_rational_coefficient(R):
    p = R.parse("3/2*x + 1/3")
    assert p.exponent_terms() == {(1, 0): Fraction(3, 2),
                                  (0, 0): Fraction(1, 3)}


def test_parse_errors_carry_positions(R):
    with pytest.raises(ParseError) as e:
        R.parse("x + z")
    assert "unknown variable" in str(e.value)
    assert e.value.position == 4
    with pytest.raises(ParseError) as e:
        R.parse("x^-2")
    assert "negative exponent" in str(e.value)
    with pytest.raises(ParseError):
        R.parse("2x")  # implicit multiplication
    with pytest.raises(ParseError):
        R.parse("x +")
    with pytest.raises(ParseError):
        R.parse("(x + y")


def test_arith_examples(R):
    x2 = R.parse("x^2")
    assert (x2 + -x2).is_zero()
    RS = PolyRing(["x", "S"], weights=(1, 2))
    S = RS.var("S")
    assert S * (S - RS.parse("x^2")) == RS.parse("S^2 - x^2*S")
    p = R.parse("x*y - 3")
    assert p * QQ.one == p


def test_mul_oracle_by_evaluation(R):
    # cross-check a product against evaluation at sample points
    a = R.parse("x^2 - y*x + 2")
    b = R.parse("x*y + y^2 - 1")
    prod = a * b

    def ev(p, vx, vy):
        total = Fraction(0)
        for (i, j), c in p.exponent_terms().items():
            total += c * vx**i * vy**j
        return total

    for vx, vy in [(1, 2), (-1, 3), (2, -2), (5, 7), (0, 1)]:
        assert ev(prod, Fraction(vx), Fraction(vy)) == \
            ev(a, Fraction(vx), Fraction(vy)) * ev(b, Fraction(vx), Fraction(vy))


def test_prime_field_arithmetic():
    F = GF(7)
    R7 = PolyRing(["x"], field=F)
    p = R7.parse("3*x + 5")
    q = R7.parse("5*x + 4")
    assert p + q == R7.parse("x + 2")
    assert (p * q).exponent_terms()[(2,)] == F.coerce(15)
    assert R7.parse("1/3") == R7.parse("5")  # inverse of 3 mod 7


def test_rational_coefficients_are_ints_when_integral(R):
    for value in (3, True, Fraction(4, 2), -7):
        assert type(QQ.coerce(value)) is int
    assert type(QQ.coerce(Fraction(3, 2))) is Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert str(R.const(True)) == "1"  # never printed as True
    assert [type(c) for c in
            R.parse("2*x + 1/2*y - 4/2").exponent_terms().values()] \
        == [int, Fraction, int]


def test_inverses_are_exact():
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(6) == Fraction(1, 6)
    assert QQ.inv(Fraction(-3, 2)) == Fraction(-2, 3)
    for c in (1, -2, 5, Fraction(3, 4), Fraction(-7, 9), Fraction(8, 4)):
        assert c * QQ.inv(c) == 1
    F = GF(7)
    assert F.inv(F.coerce(3)) == F.coerce(5) == 5
    assert all(F.coerce(v) * F.inv(F.coerce(v)) % 7 == 1 for v in range(1, 7))
    for field in (QQ, F):
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


def test_prime_moduli_are_checked_exactly():
    import time
    from xsq.scalars import MAX_MODULUS, is_prime
    start = time.perf_counter()
    assert GF(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0
    for bad in (2**61 + 1, 561, 1, 0, 3215031751):
        with pytest.raises(ValueError):
            GF(bad)
    with pytest.raises(TypeError):
        GF(7.5)
    with pytest.raises(ValueError):
        GF(MAX_MODULUS + 2)
    small = [n for n in range(3000)
             if n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(3000) if is_prime(n)] == small


def test_weighted_degree():
    RS = PolyRing(["x", "S"], weights=(1, 2))
    assert RS.parse("S^2").wdeg() == 4
    assert RS.parse("x^3 + S").wdeg() == 3
    assert RS.zero.wdeg() == -1


@pytest.mark.parametrize("kwargs", [
    {"order": ("block", -1)}, {"order": ("block",)},
    {"order": ("block", 5, "junk")}, {"order": ("block", 3)},
    {"order": ("block", 1.0)}, {"order": ["block", 1]},
    {"order": "degrevlex"}, {"weights": [1.5, 1]}, {"weights": [0, 1]},
])
def test_malformed_orders_and_weights_are_refused(kwargs):
    with pytest.raises(ValueError):
        PolyRing(["x", "y"], **kwargs)


def test_every_order_eliminate_and_the_tests_build_constructs():
    # eliminate builds ("block", len(drop)) for 1 <= len(drop) <= n, and the
    # tests build wdegrevlex, lex and ("block", k) for k = 0..n
    for n in range(5):
        names = ["x%d" % i for i in range(n)]
        for order in ["wdegrevlex", "lex"] + [("block", k)
                                              for k in range(n + 1)]:
            assert PolyRing(names, weights=range(1, n + 1),
                            order=order).order == order
    R = PolyRing(["x", "y"], order=("block", 1))
    assert R.parse("x*y + x^2").wdeg() == 2


poly_strategy = st.builds(
    lambda coeffs: coeffs,
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-9, 9).filter(bool),
        max_size=6,
    ),
)


def _mk(R, coeffs):
    p = R.zero
    for mono, c in sorted(coeffs.items()):
        p = p + R.monomial(mono, c)
    return p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(poly_strategy)
def test_roundtrip_property(coeffs):
    R = PolyRing(["x", "y"])
    p = _mk(R, coeffs)
    assert R.parse(str(p)) == p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_laws(c1, c2, c3):
    R = PolyRing(["x", "y"])
    a, b, c = _mk(R, c1), _mk(R, c2), _mk(R, c3)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c


def test_hom_composition_on_low_degree():
    # (g after h)(p) = g(h(p)) for 100
    # enumerated low-degree monomials: exhaustive, not sampled
    R = PolyRing(["x", "y"])
    S = PolyRing(["u", "v"])
    T = PolyRing(["w"])
    h = RingHom(R, S, (S.parse("u + v"), S.parse("u*v")))
    g = RingHom(S, T, (T.parse("w^2"), T.parse("w - 1")))
    comp = h.then(g)
    count = 0
    for i in range(10):
        for j in range(10):
            p = R.monomial((i, j))
            assert comp(p) == g(h(p))
            count += 1
    assert count == 100
    for text in ("x^2 - y", "(x+y)^3", "1 - x*y"):
        p = R.parse(text)
        assert comp(p) == g(h(p))


def test_identity_hom(R):
    ident = RingHom.from_map(R, R, {})
    for text in ("x^3 - 2*y", "0", "x*y + 5"):
        p = R.parse(text)
        assert ident(p) == p


def test_hom_is_additive_and_multiplicative(R):
    S = PolyRing(["u"])
    h = RingHom(R, S, (S.parse("u^2"), S.parse("u + 1")))
    a, b = R.parse("x - y^2"), R.parse("x*y + 3")
    assert h(a + b) == h(a) + h(b)
    assert h(a * b) == h(a) * h(b)


def test_canonical_equality(R):
    # equal iff identical canonical term lists
    p = R.parse("x + y") * R.parse("x - y")
    q = R.parse("x^2") - R.parse("y^2")
    assert p == q and (list(p.exponent_terms().items())
                       == list(q.exponent_terms().items()))
    assert hash(p) == hash(q)


def test_string_form_is_descending(R):
    p = R.parse("y + x^3 + x*y")
    assert str(p) == "x^3 + x*y + y"


# images of the substitution test: zero, unit monomials, non-unit monomials
# and several-term polynomials, in the codomain k[u, v, w]
HOM_IMAGES = ("0", "u", "v^2", "3*u^2", "-1/2*v", "2*u*w^3",
              "u + v", "u*v - 2", "1/3*w^2 - u + 1")
HOM_FIELDS = (QQ, GF(32003))


def _substitute(h, p):
    """Reference: the sum of c * prod(images[i] ** e) in Polynomial
    arithmetic."""
    out = h.codomain.zero
    for m, c in p.exponent_terms().items():
        term = h.codomain.const(c)
        for img, e in zip(h.images, m):
            term = term * img ** e
        out = out + term
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(HOM_FIELDS),
       st.lists(st.sampled_from(HOM_IMAGES), min_size=3, max_size=3),
       st.lists(st.sampled_from(HOM_IMAGES[:6]), min_size=3, max_size=3),
       st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                       st.integers(-9, 9).filter(bool), max_size=6))
def test_hom_matches_term_by_term_substitution(field, f_imgs, g_imgs, coeffs):
    # g is an endomorphism of the codomain with monomial images, so that
    # g(f(p)) stays small
    R = PolyRing(["x", "y", "z"], field)
    S = PolyRing(["u", "v", "w"], field)
    f = RingHom(R, S, [S.parse(t) for t in f_imgs])
    g = RingHom(S, S, [S.parse(t) for t in g_imgs])
    p = R.zero
    for mono, c in sorted(coeffs.items()):
        p = p + R.monomial(mono, c)
    assert f(p) == _substitute(f, p)
    assert g(f(p)) == _substitute(g, _substitute(f, p))
    assert f.then(g)(p) == g(f(p))


# -- packed monomials ----------------------------------------------------


_EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT),
                       st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))


@st.composite
def packing_cases(draw):
    """(ring, a, b): a ring on one to four variables of weight 1-5 in
    wdegrevlex, lex or ("block", k) for k = 0..n, and two exponent vectors
    with entries that are small, arbitrary or near the limit.  Half of the
    time b is a with weighted degree moved between two variables, so that
    the two have the same weighted degree and differ in the tie-break."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    order = draw(st.sampled_from(["wdegrevlex", "lex"]
                                 + [("block", k) for k in range(n + 1)]))
    ring = PolyRing(["x%d" % i for i in range(n)], weights=weights,
                    order=order)
    vectors = st.tuples(*[_EXPONENTS] * n)
    a, b = draw(vectors), list(draw(vectors))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        most = min(a[j] // weights[i], (MAX_EXPONENT - a[i]) // weights[j])
        t = draw(st.integers(0, most))
        b = list(a)
        b[i] += weights[j] * t
        b[j] -= weights[i] * t
    return ring, a, tuple(b)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(packing_cases())
def test_packed_monomials_match_the_exponent_tuples(case):
    ring, a, b = case
    packing = ring.packing
    pack, key, guards = packing.pack, packing.key, packing.guards
    A, B = pack(a), pack(b)
    assert packing.unpack(A) == a and packing.unpack(B) == b
    # the int key orders every pair as the reference key does
    ref_a, ref_b = (ref_key(e, ring.weights, ring.order)
                    for e in (a, b))
    assert (key(A) < key(B)) == (ref_a < ref_b)
    assert (key(A) == key(B)) == (a == b)
    # a product is a sum with a linear key, or sets a guard bit on overflow
    prod = tuple(x + y for x, y in zip(a, b))
    if max(prod) <= MAX_EXPONENT:
        assert A + B == pack(prod) and not (A + B) & guards
        assert key(A + B) == key(A) + key(B)
    else:
        assert (A + B) & guards
    # divisibility by one subtraction and the guard mask
    hi = tuple(max(x, y) for x, y in zip(a, b))
    lo = tuple(min(x, y) for x, y in zip(a, b))
    for u, v in ((a, b), (b, a), (a, hi), (lo, a), (lo, hi)):
        divides = all(x <= y for x, y in zip(u, v))
        assert (not (pack(v) - pack(u)) & guards) == divides
    # the lcm is the element-wise maximum, degree fields included
    assert packing.lcm(A, B) == pack(hi)
    assert packing.unpack(packing.lcm(A, B)) == hi


def test_packing_refuses_an_exponent_above_the_limit():
    ring = PolyRing(["x", "y"])
    assert ring.packing.pack((MAX_EXPONENT, 0)) > 0
    with pytest.raises(ExponentOverflow) as e:
        ring.packing.pack((0, 2**31))
    assert isinstance(e.value, BudgetExceeded)
    assert str(e.value) == "exponent above the limit of 2147483647"
    with pytest.raises(ExponentOverflow):
        ring.packing.pack((2**31, 1))
