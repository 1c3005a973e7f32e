import random
from fractions import Fraction

import pytest

from stratabench.bidouble import PLANE
from stratabench.implicitize import (ImplicitizeError, ParametrizationInput,
                                     PlaneQuartic, UV, build_parametrization,
                                     compare_up_to_scalar, implicitize,
                                     closed_form_quartic, verify_node)


def test_parameter_constraints():
    for a, b in ((1, 2), (0, 2), (2, 0), (2, 1), (3, 3), (4, 2),
                 (Fraction(3, 4), Fraction(3, 2)), (3, -3)):
        with pytest.raises(ImplicitizeError, match="degenerate parameters"):
            ParametrizationInput(Fraction(a), Fraction(b))
    inp = ParametrizationInput(Fraction(2), Fraction(3))
    pts = inp.marked_points()
    assert len({(u * 1, v * 1) if v == 0 else (u / v, 1) for u, v in pts}) == 6


def test_build_parametrization_expansion():
    inp = ParametrizationInput(Fraction(2), Fraction(3))
    x, _, _ = build_parametrization(inp)
    u, v = UV.var("u"), UV.var("v")
    assert x == u ** 3 * v - 4 * u ** 2 * v ** 2 + 3 * u * v ** 3


def test_parametrization_vanishing_pattern():
    inp = ParametrizationInput(Fraction(2), Fraction(3))
    forms = build_parametrization(inp)
    pts = inp.marked_points()
    # each coordinate form vanishes at exactly four of the six points
    for f in forms:
        vals = [f.evaluate({"u": u, "v": v}) for u, v in pts]
        assert sum(1 for t in vals if t == 0) == 4
    y = forms[1]
    assert y.evaluate({"u": 1, "v": 0}) != 0
    assert y.evaluate({"u": 0, "v": 1}) == 0
    # x vanishes at the preimages of P2 and P3: (0:1),(1:0),(1:1),(b:1)
    x = forms[0]
    for u, v in ((0, 1), (1, 0), (1, 1), (3, 1)):
        assert x.evaluate({"u": Fraction(u), "v": Fraction(v)}) == 0


def test_golden_quartic():
    quartic, ver = implicitize(ParametrizationInput(Fraction(2), Fraction(3)))
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    golden = (21 * x ** 2 * y ** 2 + 40 * x ** 2 * y * z - 25 * x * y ** 2 * z
              - 4 * x ** 2 * z ** 2 + 5 * x * y * z ** 2 + 6 * y ** 2 * z ** 2)
    assert quartic.poly == golden
    assert ver["pullback_zero"]
    assert ver["matches_closed_form"]
    assert all(ver["nodes"].values())


def test_random_parameters_match_closed_form():
    rng = random.Random(2024)
    done = 0
    while done < 5:
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        try:
            inp = ParametrizationInput(a, b)
        except ImplicitizeError:
            continue
        quartic, ver = implicitize(inp)
        assert quartic.poly == closed_form_quartic(a, b).poly
        assert ver["pullback_zero"] and all(ver["nodes"].values())
        done += 1


def test_tau_compatibility():
    # composing the parametrization with tau(u:v) = (av:u) stays on the curve
    inp = ParametrizationInput(Fraction(2), Fraction(3))
    quartic, _ = implicitize(inp)
    u, v = UV.var("u"), UV.var("v")
    tau = {"u": v.scale(inp.a), "v": u}
    composed = {n: f.substitute(tau)
                for n, f in zip(("x", "y", "z"), build_parametrization(inp))}
    assert quartic.poly.substitute(composed).is_zero()


def test_verify_node_examples():
    f23, _ = implicitize(ParametrizationInput(Fraction(2), Fraction(3)))
    assert verify_node(f23, (Fraction(1), Fraction(0), Fraction(0)))

    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    fermat = PlaneQuartic(x ** 4 + y ** 4 + z ** 4)
    assert not verify_node(fermat, (Fraction(1), Fraction(0), Fraction(0)))

    cusp = PlaneQuartic(y ** 2 * z ** 2 - x ** 3 * z)
    assert not verify_node(cusp, (Fraction(0), Fraction(0), Fraction(1)))


def test_compare_up_to_scalar():
    x, y = PLANE.var("x"), PLANE.var("y")
    f = x * x + 2 * y * y
    assert compare_up_to_scalar(f.scale(2), f)
    assert not compare_up_to_scalar(f, f + x ** 2)
    q, _ = implicitize(ParametrizationInput(Fraction(2), Fraction(3)))
    assert compare_up_to_scalar(q.poly, closed_form_quartic(2, 3).poly)
