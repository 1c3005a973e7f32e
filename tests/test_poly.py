import json
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from stratabench import bounded_rational, integer_terms, poly, s2e
from stratabench.poly import Polynomial, PolynomialError, WeightedRing

R5 = WeightedRing(("x", "y1", "y2", "z1", "z2"), (1, 2, 2, 3, 3))
R2 = WeightedRing(("u", "v"), (1, 1))


def test_ring_validation():
    with pytest.raises(PolynomialError):
        WeightedRing(("x", "x"), (1, 1))
    with pytest.raises(PolynomialError):
        WeightedRing(("x",), (0,))
    with pytest.raises(PolynomialError):
        WeightedRing(("x", "y"), (1,))


@pytest.mark.parametrize("weight", [1.5, 2.0, True])
def test_ring_refuses_weights_that_are_not_ints(weight):
    # int(w) would read 1.5 and True as weight 1
    with pytest.raises(PolynomialError, match="weights must be positive integers"):
        WeightedRing(("x", "y"), (1, weight))


def test_weighted_degree_examples():
    z1 = R5.var("z1")
    assert (z1 * z1).weighted_degree() == 6
    assert R5.one().weighted_degree() == 0
    assert (R5.var("x") + R5.var("y1")).weighted_degree() == "inhomogeneous"
    with pytest.raises(PolynomialError, match="degree of zero undefined"):
        R5.zero().weighted_degree()


def test_substitute_examples():
    x = R5.var("x")
    u, v = R2.var("u"), R2.var("v")
    expanded = (x * x).substitute({"x": u + v})
    assert expanded == u * u + 2 * u * v + v * v

    # identity assignment
    z1, y1 = R5.var("z1"), R5.var("y1")
    p = z1 * z1 + y1 ** 3
    ident = {n: R5.var(n) for n in R5.names}
    assert p.substitute(ident) == p

    # y2^3 with y2 -> B^2
    RB = WeightedRing(("A", "B"), (1, 1))
    B = RB.var("B")
    y2 = R5.var("y2")
    assert (y2 ** 3).substitute({"y2": B * B}) == B ** 6


def test_substitute_missing_assignment():
    with pytest.raises(PolynomialError, match="missing assignment"):
        (R5.var("x") + R5.var("y1")).substitute({"x": R2.var("u")})


def test_substitute_refuses_images_in_two_rings():
    RB = WeightedRing(("A", "B"), (1, 1))
    with pytest.raises(PolynomialError, match="different rings"):
        (R5.var("x") * R5.var("y1")).substitute({"x": R2.var("u"), "y1": RB.var("A")})
    # the images of unused variables count too
    with pytest.raises(PolynomialError, match="different rings"):
        R5.var("x").substitute({"x": R2.var("u"), "z2": RB.var("A")})


def test_differentiate_examples():
    x, y = R2.var("u"), R2.var("v")
    assert (x ** 4).differentiate("u") == 4 * x ** 3
    assert (x ** 4).differentiate("v") == R2.zero()
    assert (x ** 2 * y ** 2).differentiate("u") == 2 * x * y ** 2
    with pytest.raises(PolynomialError):
        (x ** 2).differentiate("w")


def test_mixed_ring_rejected():
    with pytest.raises(PolynomialError, match="mixed rings"):
        R5.var("x") + R2.var("u")


small_coeff = st.integers(-4, 4).map(Fraction)


def random_poly(ring, max_exp=2, max_terms=4):
    exp = st.tuples(*[st.integers(0, max_exp) for _ in ring.names])
    return st.dictionaries(exp, small_coeff, max_size=max_terms).map(
        lambda d: Polynomial(ring, d))


@settings(max_examples=60, deadline=None)
@given(random_poly(R2), random_poly(R2), random_poly(R2))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(random_poly(R2, max_exp=2, max_terms=3),
       random_poly(R2, max_exp=2, max_terms=3))
def test_degree_multiplicative_for_homogeneous(p, q):
    def top(f):
        if f.is_zero():
            return f
        d = f.max_weighted_degree()
        return Polynomial(f.ring, {e: c for e, c in f.terms.items()
                                   if f.ring.wdeg(e) == d})

    p, q = top(p), top(q)
    if p.is_zero() or q.is_zero():
        return
    assert (p * q).weighted_degree() == p.weighted_degree() + q.weighted_degree()


@settings(max_examples=40, deadline=None)
@given(random_poly(R2, max_exp=2, max_terms=3),
       random_poly(R2, max_exp=2, max_terms=3))
def test_substitute_is_homomorphism(p, q):
    RT = WeightedRing(("s", "t"), (1, 1))
    sigma = {"u": RT.var("s") + RT.var("t"), "v": RT.var("s") * RT.var("t") + 1}
    lhs = (p * q).substitute(sigma)
    rhs = p.substitute(sigma) * q.substitute(sigma)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(random_poly(R5, max_exp=3, max_terms=5))
def test_json_round_trip(p):
    doc = poly.to_json(p)
    # canonical order is descending weight-graded revlex
    keys = [(R5.wdeg(tuple(t["e"])), poly.revlex_key(tuple(t["e"])))
            for t in doc["terms"]]
    assert keys == sorted(keys, reverse=True)
    q = poly.from_json(json.loads(json.dumps(doc)))
    assert q == p and q.ring == p.ring


def test_json_fraction_format():
    p = R2.var("u").scale(Fraction(-3, 7)) + 2
    doc = poly.to_json(p)
    coeffs = {t["c"] for t in doc["terms"]}
    assert coeffs == {"-3/7", "2"}  # denominator 1 omitted


def test_edge_cases():
    u = R2.var("u")
    assert (u ** 0) == R2.one()
    assert R2.zero() * u == R2.zero()
    assert u - u == R2.zero()
    assert not R2.zero()
    assert u.scale(0).is_zero()
    # constant substitution images are accepted
    assert (u * u).substitute({"u": 3}) == R2.const(9)
    with pytest.raises(PolynomialError):
        Polynomial(R2, {(1,): Fraction(1)})  # wrong exponent length
    with pytest.raises(PolynomialError):
        Polynomial(R2, {(-1, 0): Fraction(1)})  # negative exponent
    with pytest.raises(PolynomialError):
        poly.from_json(poly.to_json(u), ring=R5)  # ring mismatch
    for bad in ({"c": "abc", "e": [1, 0]}, {"c": "1/0", "e": [1, 0]},
                {"c": "1", "e": ["a", 0]}, {"c": "1", "e": [1]},
                {"c": 0.1, "e": [1, 0]}, {"c": True, "e": [1, 0]},
                {"c": "1", "e": [1.0, 0]}, {"c": "1", "e": [True, 0]}):
        doc = poly.to_json(u)
        doc["terms"] = [bad]
        with pytest.raises(PolynomialError):
            poly.from_json(doc)


def test_from_json_reads_as_the_constructor_does():
    # from_json parses and checks each term once itself; the validating
    # constructor is the reference, zero terms dropped before their exponents
    for terms in ([{"c": "0", "e": [1]}, {"c": "2/4", "e": [1, 0]}, {"c": 3, "e": [0, 2]}],
                  [{"c": "-1", "e": [0, 0]}, {"c": "0", "e": [2, 2]}],
                  [{"c": "1", "e": [1]}], [{"c": "1", "e": [0, -1]}], []):
        doc = dict(poly.to_json(R2.var("u")), terms=terms)
        try:
            expected = Polynomial(R2, {tuple(t["e"]): Fraction(t["c"]) for t in terms})
        except PolynomialError as exc:
            with pytest.raises(PolynomialError, match=f"^{exc}$"):
                poly.from_json(doc)
            continue
        got = poly.from_json(doc)
        assert list(got.terms.items()) == list(expected.terms.items())
        _assert_clean(got, R2)


def test_integer_terms():
    assert integer_terms({}) == ({}, 1)
    assert integer_terms({"a": 3, "b": -4}) == ({"a": 3, "b": -4}, 1)
    terms = {(1,): Fraction(-1, 6), (0,): Fraction(3, 4), (2,): 0, (3,): 2, (4,): Fraction(-5)}
    row, den = integer_terms(terms)
    # keys keep their order and zeros stay, as a dense list needs
    assert list(row.items()) == [((1,), -2), ((0,), 9), ((2,), 0), ((3,), 24), ((4,), -60)]
    assert den == 12 and all(type(v) is int for v in row.values())



def test_bounded_rational_searches_for_an_exponent_only_after_an_e():
    # a five-digit exponent, of either case, is refused unparsed, where
    # Fraction would build 10**100000 first; without an e or E the
    # exponent pattern cannot match, and the string goes to Fraction
    assert bounded_rational("1e100000") is None
    assert bounded_rational("1E100000") is None
    assert bounded_rational("1e99") == 10 ** 99
    assert bounded_rational("12/7") == Fraction(12, 7)
    assert bounded_rational("-3") == -3
    assert bounded_rational(" 4 ") == 4

def test_immutability():
    u = R2.var("u")
    with pytest.raises(AttributeError):
        u.terms = {}


def _assert_clean(r, ring):
    """r holds only nonzero Fractions on exponent tuples that fit `ring`."""
    assert r.ring == ring
    for e, c in r.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == ring.nvars
        assert all(type(k) is int and k >= 0 for k in e)
    assert Polynomial(ring, r.terms).terms == r.terms


R3 = WeightedRing(("v", "w", "u"), (1, 2, 1))
S2E_CTX = s2e.Context(s2e.WeierstrassParams(Fraction(-1), Fraction(2)))


@settings(max_examples=40, deadline=None)
@given(random_poly(R2, max_exp=3, max_terms=5), random_poly(R2, max_exp=3, max_terms=5),
       small_coeff, st.integers(0, 3), random_poly(s2e.NUMERIC_RING, max_exp=3, max_terms=4))
def test_arithmetic_results_hold_clean_terms(p, q, c, n, f):
    images = {"u": R3.var("w") - R3.var("v"), "v": R3.var("u") * R3.var("v") + 1}
    for r in (p + q, p + 2, p - q, p - p, 3 - p, p * q, p * 0, p ** n, -p, p.scale(c),
              p.differentiate("u"), p.substitute({"u": 0, "v": c})):
        _assert_clean(r, R2)
    _assert_clean(p.substitute(images), R3)
    _assert_clean(poly.rename_into(p, R3), R3)
    _assert_clean(S2E_CTX.normal_form(f), s2e.NUMERIC_RING)


def test_collect_sums_and_drops_zeros():
    one, two = Fraction(1), Fraction(2)
    r = poly.collect(R2, [((1, 0), one), ((0, 1), two), ((1, 0), -one), ((0, 1), one),
                          ((2, 2), Fraction(0))])
    assert r.terms == {(0, 1): Fraction(3)}
    assert poly.collect(R2, []) == R2.zero()


RT = WeightedRing(("s", "t"), (1, 1))
rational = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def _naive_substitute(p, images):
    """Sum of c * prod img_i^k_i, by Polynomial * and ** on Fractions."""
    target = next((img.ring for img in images.values() if isinstance(img, Polynomial)), p.ring)
    out = target.zero()
    for e, c in p.terms.items():
        term = target.const(c)
        for name, k in zip(p.ring.names, e):
            img = images[name]
            term = term * (img if isinstance(img, Polynomial) else target.const(img)) ** k
        out = out + term
    return out


def _fraction_product(p, q):
    """Reference product: every pair of terms multiplied as Fractions, summed."""
    return poly.collect(p.ring, ((tuple(map(add, e1, e2)), c1 * c2)
                                 for e1, c1 in p.terms.items() for e2, c2 in q.terms.items()))


def _fraction_power(p, n):
    """Reference power: binary exponentiation by the Fraction product."""
    result, base = p.ring.one(), p
    while n:
        if n & 1:
            result = _fraction_product(result, base)
        base = _fraction_product(base, base) if n > 1 else base
        n >>= 1
    return result


def _rational_poly(ring, max_exp, max_terms):
    exp = st.tuples(*[st.integers(0, max_exp) for _ in ring.names])
    return st.dictionaries(exp, rational, max_size=max_terms).map(
        lambda d: Polynomial(ring, d))


image = st.one_of(_rational_poly(RT, 2, 3), rational, st.integers(-3, 3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_rational_poly(R3, 3, 5), st.fixed_dictionaries({n: image for n in R3.names}),
       rational, rational)
@example(R3.zero(), {"v": RT.var("s"), "w": 2, "u": Fraction(1, 3)}, Fraction(1), Fraction(2))
@example(R3.var("v") ** 2 + R3.var("u"), {"v": RT.zero(), "w": RT.var("t"), "u": Fraction(-1, 4)},
         Fraction(1, 2), Fraction(3))
def test_substitute_matches_the_naive_expansion(p, images, s, t):
    # images over distinct denominators, constant images, variables that
    # are assigned but unused, and the zero polynomial (an empty dict)
    result = p.substitute(images)
    assert result == _naive_substitute(p, images)
    _assert_clean(result, result.ring)
    point = {"s": s, "t": t} if result.ring == RT else {}
    values = {n: img.evaluate(point) if isinstance(img, Polynomial) else Fraction(img)
              for n, img in images.items()}
    assert result.evaluate(point) == p.evaluate(values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_rational_poly(R3, 3, 5), _rational_poly(R3, 3, 5),
       st.one_of(rational, st.integers(-3, 3)), st.integers(0, 4))
@example(R3.zero(), R3.const(Fraction(2, 3)), 0, 0)
@example(R3.var("v").scale(Fraction(1, 3)) + Fraction(1, 5),
         R3.var("u").scale(Fraction(-2, 5)) + Fraction(1, 3), Fraction(5, 7), 3)
def test_mul_matches_the_fraction_product(p, q, c, n):
    # distinct denominators, int and Fraction scalars, zero and constants
    C = R3.const(c)
    for got, ref in ((p * q, _fraction_product(p, q)), (p * c, _fraction_product(p, C)),
                     (c * p, _fraction_product(C, p)), (C * q, _fraction_product(C, q)),
                     (p ** n, _fraction_power(p, n)), (C ** n, _fraction_power(C, n))):
        # the same terms in the same order, so reports stay byte-identical
        assert list(got.terms.items()) == list(ref.terms.items())
        _assert_clean(got, R3)


def _fraction_evaluate(p, values):
    """Reference evaluation: each term a Fraction product, summed as Fractions."""
    out = Fraction(0)
    idx = {p.ring.index(n): Fraction(v) for n, v in values.items()}
    for e, c in p.terms.items():
        t = c
        for i, k in enumerate(e):
            if k == 0:
                continue
            if i not in idx:
                raise PolynomialError(f"no value for variable {p.ring.names[i]!r}")
            t *= idx[i] ** k
        out += t
    return out


def _outcome(f, *args):
    try:
        value = f(*args)
    except PolynomialError as exc:
        return "error", str(exc)
    return type(value), value


value = st.one_of(rational, st.integers(-9, 9), rational.map(str), st.integers(-9, 9).map(str))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rational_poly(R3, 3, 5), st.dictionaries(st.sampled_from(R3.names), value))
@example(R3.zero(), {})
@example(R3.zero(), {"v": "1/2"})
# "u" alone has a value; the walk meets the term in "w" first
@example(Polynomial(R3, {(0, 0, 1): 1, (0, 1, 0): 2, (1, 0, 0): 3}), {"u": 1})
@example(R3.var("u") ** 2 - 4, {"u": "-2", "v": Fraction(1, 3), "w": 5})
def test_evaluate_matches_the_fraction_evaluation(p, values):
    # the empty polynomial, values for unused variables, int and str
    # values, and the missing-variable error with the variable it names
    assert _outcome(p.evaluate, values) == _outcome(_fraction_evaluate, p, values)


def test_evaluate_examples():
    v, w, u = (R3.var(n) for n in R3.names)
    assert R3.zero().evaluate({}) == 0 and type(R3.zero().evaluate({})) is Fraction
    assert (v.scale(Fraction(1, 2)) * w + u ** 3).evaluate(
        {"v": "2/3", "w": 3, "u": Fraction(-1, 2)}) == Fraction(7, 8)
    with pytest.raises(PolynomialError, match="no value for variable 'w'"):
        (v + w).evaluate({"v": 1})
    with pytest.raises(PolynomialError, match="unknown variable 'q'"):
        v.evaluate({"v": 1, "q": 2})
