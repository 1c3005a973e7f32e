import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from stratabench.canring import (BINARY_RING, CANONICAL_RING, XY_RING,
                                 CanonicalRingModel, DelPezzoModel, ModelError,
                                 NonGenericBase, bicanonical_fiber_count,
                                 ci_hilbert_series,
                                 classify_relative_automorphisms,
                                 del_pezzo_report, elliptic_involution_a6,
                                 random_model, rr_prediction, validate_canring)
from stratabench.groebner import buchberger, leading_monomial, poly_gcd
from stratabench.poly import Polynomial, weighted_exponents


def demo_model():
    x, y1, y2 = XY_RING.var("x"), XY_RING.var("y1"), XY_RING.var("y2")
    zero = XY_RING.zero()
    return CanonicalRingModel(zero, zero, y1 ** 3 + x ** 6, y2 ** 3 + x ** 6)


# -- Hilbert series -------------------------------------------------------------


def test_hilbert_series_examples():
    assert ci_hilbert_series((1, 2, 2, 3, 3), (6, 6), 6) == [1, 1, 3, 5, 8, 12, 17]
    hp = ci_hilbert_series((1, 1, 2, 3), (6,), 3)
    assert hp[1:] == [2, 4, 7]
    assert ci_hilbert_series((1,), (), 3) == [1, 1, 1, 1]


def test_hilbert_vs_rr():
    series = ci_hilbert_series((1, 2, 2, 3, 3), (6, 6), 12)
    for m in range(1, 13):
        assert series[m] == rr_prediction(1, 2, 1, m)


def test_rr_examples():
    assert rr_prediction(1, 2, 1, 6) == 17
    assert rr_prediction(1, 2, 1, 1) == 1
    assert rr_prediction(1, 2, 1, 2) == 3
    with pytest.raises(ModelError):
        rr_prediction(1, 2, 1, 0)


def _standard_monomial_count(ring, gb, degree):
    """Independent oracle: count degree-d monomials outside the initial ideal."""
    lms = [leading_monomial(g, gb.order) for g in gb]
    count = 0
    ranges = [range(degree // w + 1) for w in ring.weights]
    for e in iproduct(*ranges):
        if ring.wdeg(e) != degree:
            continue
        if any(all(a >= b for a, b in zip(e, lm)) for lm in lms):
            continue
        count += 1
    return count


def test_hilbert_series_vs_groebner_standard_monomials():
    model = demo_model()
    f1, f2 = model.relations()
    gb = buchberger([f1, f2])
    series = ci_hilbert_series((1, 2, 2, 3, 3), (6, 6), 9)
    for m in range(10):
        assert series[m] == _standard_monomial_count(CANONICAL_RING, gb, m)


def test_del_pezzo_hilbert_vs_groebner():
    x1, x2 = BINARY_RING.var("x1"), BINARY_RING.var("x2")
    model = DelPezzoModel(Fraction(1), BINARY_RING.zero(), BINARY_RING.zero(),
                          x1 ** 6 + x2 ** 6)
    gb = buchberger([model.relation()])
    series = ci_hilbert_series((1, 1, 2, 3), (6,), 8)
    for m in range(9):
        assert series[m] == _standard_monomial_count(model.ring, gb, m)


# -- model validation -----------------------------------------------------------


def test_validate_demo_model():
    report = validate_canring(demo_model())
    assert report.shape_ok and report.coprime_ok and report.ambient_ok
    assert report.valid


def test_validate_common_factor_fails():
    x, y1 = XY_RING.var("x"), XY_RING.var("y1")
    b = y1 ** 3 + x ** 6
    model = CanonicalRingModel(XY_RING.zero(), XY_RING.zero(), b, b)
    report = validate_canring(model)
    assert not report.coprime_ok and not report.valid


def test_validate_common_zero_on_x0_fails():
    x, y1, y2 = XY_RING.var("x"), XY_RING.var("y1"), XY_RING.var("y2")
    # both restrictions to x=0 vanish at (y1:y2) = (0:1)
    model = CanonicalRingModel(XY_RING.zero(), XY_RING.zero(),
                               y1 * y1 * y2 + x ** 6, y1 ** 3 + x ** 4 * y1)
    report = validate_canring(model)
    assert report.coprime_ok and not report.ambient_ok


def test_validate_b_divisible_by_x_fails():
    x, y1, y2 = XY_RING.var("x"), XY_RING.var("y1"), XY_RING.var("y2")
    # x | b1, so b1 restricted to x=0 is identically zero
    model = CanonicalRingModel(XY_RING.zero(), XY_RING.zero(),
                               x ** 2 * y1 ** 2 + x ** 6, y1 ** 3 + y2 ** 3)
    report = validate_canring(model).to_json()
    assert report["coprime_ok"] and report["ambient_ok"] is False
    assert report["detail"] == "a b_i vanishes on the x=0 locus"


def _random_form(rng, degree, x_free=False):
    """A nonzero random form of the given weighted degree in XY_RING."""
    exps = [e for e in weighted_exponents((1, 2, 2), degree) if not (x_free and e[0])]
    while True:
        p = Polynomial(XY_RING, {e: Fraction(rng.randint(-3, 3)) for e in exps})
        if not p.is_zero():
            return p


def test_coprime_ok_agrees_with_groebner_gcd():
    # coprime_ok is decided by the x = 0 resultant where it is nonzero and
    # by poly_gcd otherwise; poly_gcd(b1, b2) == 1 stays the oracle on all
    rng = random.Random(2024)
    x = XY_RING.var("x")
    y1, y2 = XY_RING.var("y1"), XY_RING.var("y2")

    def valid():
        return _random_form(rng, 6), _random_form(rng, 6)

    def common_factor():
        c = _random_form(rng, rng.choice((1, 2, 4)))
        d = c.weighted_degree()
        return c * _random_form(rng, 6 - d), c * _random_form(rng, 6 - d)

    def x_divides():
        return x * _random_form(rng, 5), _random_form(rng, 6)

    def shared_root_on_x0():
        line = y1 - y2 * Fraction(rng.randint(-3, 3))
        return tuple(line * _random_form(rng, 4, x_free=True) + x * _random_form(rng, 5)
                     for _ in range(2))

    seen = set()
    for kind in (valid, common_factor, x_divides, shared_root_on_x0):
        for _ in range(5):
            b1, b2 = kind()
            model = CanonicalRingModel(XY_RING.zero(), XY_RING.zero(), b1, b2)
            report = validate_canring(model)
            oracle = poly_gcd(model.b1, model.b2) == CANONICAL_RING.one()
            assert report.coprime_ok == oracle, (kind.__name__, b1, b2)
            if kind is common_factor:
                assert not report.coprime_ok
            seen.add((kind.__name__, report.ambient_ok, report.coprime_ok))
    # every kind reached its intended branch
    assert ("valid", True, True) in seen
    assert ("x_divides", False, True) in seen
    assert ("shared_root_on_x0", False, True) in seen


def test_inhomogeneous_inputs_rejected():
    x = XY_RING.var("x")
    with pytest.raises(ModelError):
        CanonicalRingModel(XY_RING.zero(), XY_RING.zero(), x ** 6 + x, x ** 6)


# -- quadruple cover -------------------------------------------------------------


def test_fiber_count_demo_model():
    base = (Fraction(1), Fraction(1), Fraction(1))
    assert bicanonical_fiber_count(demo_model(), base) == 4


def test_fiber_count_on_branch_locus():
    # y1 = -1 makes b1(1, y1, y2) = 0, collapsing the z1-pair
    base = (Fraction(1), Fraction(-1), Fraction(1))
    assert bicanonical_fiber_count(demo_model(), base) == 2


def test_fiber_count_invalid_model_propagates():
    x, y1 = XY_RING.var("x"), XY_RING.var("y1")
    b = y1 ** 3 + x ** 6
    model = CanonicalRingModel(XY_RING.zero(), XY_RING.zero(), b, b)
    with pytest.raises(ModelError):
        bicanonical_fiber_count(model, (Fraction(1), Fraction(1), Fraction(1)))


def test_fiber_count_bad_chart():
    with pytest.raises(NonGenericBase):
        bicanonical_fiber_count(demo_model(),
                                (Fraction(0), Fraction(1), Fraction(1)))


def test_fiber_count_with_cross_terms():
    # exercise the generic branch (a1 != 0) via a random valid model
    rng = random.Random(17)
    for _ in range(3):
        model = random_model(rng)
        found = None
        for attempt in range(4):
            base = (Fraction(1), Fraction(rng.randint(-9, 9)),
                    Fraction(rng.randint(-9, 9)))
            n = bicanonical_fiber_count(model, base)
            if n == 4:
                found = n
                break
        assert found == 4


# -- automorphisms ---------------------------------------------------------------


def test_classify_automorphisms():
    x, y1, y2 = XY_RING.var("x"), XY_RING.var("y1"), XY_RING.var("y2")
    zero = XY_RING.zero()
    b1, b2 = y1 ** 3 + x ** 6, y2 ** 3 + x ** 6
    assert classify_relative_automorphisms(
        CanonicalRingModel(zero, zero, b1, b2)) == "Z2xZ2"
    assert classify_relative_automorphisms(
        CanonicalRingModel(zero, y1, b1, b2)) == "Z2"
    assert classify_relative_automorphisms(
        CanonicalRingModel(y1, y2, b1, b2)) == "trivial-in-given-coordinates"


def test_classification_scaling_invariant():
    x, y1, y2 = XY_RING.var("x"), XY_RING.var("y1"), XY_RING.var("y2")
    zero = XY_RING.zero()
    b1, b2 = y1 ** 3 + x ** 6, y2 ** 3 + x ** 6
    for lam in (Fraction(2), Fraction(-1, 3), Fraction(7)):
        m1 = CanonicalRingModel(zero, y1.scale(lam), b1.scale(lam), b2)
        assert classify_relative_automorphisms(m1) == "Z2"


# -- del Pezzo --------------------------------------------------------------------


def test_del_pezzo_report():
    a6 = elliptic_involution_a6(1, 2, 3)
    model = DelPezzoModel(Fraction(1), BINARY_RING.zero(), BINARY_RING.zero(), a6)
    rep = del_pezzo_report(model, 8)
    assert rep["hilbert_ok"]
    assert rep["hilbert"][1:4] == [2, 4, 7]
    assert rep["restricted_hilbert"][2:4] == [3, 5]
    assert rep["restricted_hilbert"][0] == 1
    assert rep["genus2_ok"]


def test_elliptic_involution_a6():
    x1, x2 = BINARY_RING.var("x1"), BINARY_RING.var("x2")
    a6 = elliptic_involution_a6(1, 2, 3)
    expected = -((x1 ** 2 - x2 ** 2) * (x1 ** 2 - x2 ** 2 * 2)
                 * (x1 ** 2 - x2 ** 2 * 3))
    assert a6 == expected
    # invariant under x1 -> -x1: only even powers of x1 occur
    assert all(e[0] % 2 == 0 for e in a6.terms)
    with pytest.raises(ModelError, match="degenerate sextic"):
        elliptic_involution_a6(1, 1, 2)
    with pytest.raises(ModelError, match="degenerate sextic"):
        elliptic_involution_a6(0, 1, 2)


def test_random_models_validate():
    rng = random.Random(23)
    for _ in range(5):
        model = random_model(rng)
        assert validate_canring(model).valid


def test_model_json_round_trip():
    model = demo_model()
    assert CanonicalRingModel.from_json(model.to_json()) == model
    a6 = elliptic_involution_a6(1, 2, 3)
    dp = DelPezzoModel(Fraction(2), BINARY_RING.zero(), BINARY_RING.zero(), a6)
    assert DelPezzoModel.from_json(dp.to_json()) == dp


def test_fiber_count_agrees_with_sylvester_resultant():
    # dual route for the generic branch: eliminate z2 with the Sylvester
    # resultant and count distinct roots of the squarefree part
    from stratabench.groebner import resultant
    from stratabench.poly import WeightedRing
    rng = random.Random(31)
    model = random_model(rng)
    Z = WeightedRing(("z1", "z2"), (1, 1))
    z1, z2 = Z.var("z1"), Z.var("z2")
    for _ in range(3):
        base = (Fraction(1), Fraction(rng.randint(-9, 9)),
                Fraction(rng.randint(-9, 9)))
        pt = {"x": Fraction(1), "y1": base[1], "y2": base[2]}
        a1, a2 = model.a1.evaluate(pt), model.a2.evaluate(pt)
        if a1 == 0 or a2 == 0:
            continue
        f1 = z1 * z1 + z2.scale(a1) + Z.const(model.b1.evaluate(pt))
        f2 = z2 * z2 + z1.scale(a2) + Z.const(model.b2.evaluate(pt))
        res = resultant(f1, f2, "z2")
        assert res.degree_in("z1") == 4
        coeffs = [Fraction(0)] * 5
        for e, c in res.terms.items():
            coeffs[e[0]] = c
        from stratabench.forms import distinct_roots
        assert distinct_roots(coeffs) == bicanonical_fiber_count(model, base)
