import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stratabench import poly, s2e
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
