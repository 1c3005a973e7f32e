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


def _gradient_node_predicate(q, point):
    """The node test with its gradient pass written out: q and its three
    partials vanish, and the 3 x 3 Hessian at the point has rank 2.

    At a singular point Euler's relation puts the point in the kernel
    of the Hessian, so its rank is that of the Hessian of the affine
    chart, and rank 2 says that the quadratic initial form is nonzero
    and squarefree."""
    p = q.poly
    values = dict(zip("xyz", point))
    if p.evaluate(values) != 0:
        return False
    if any(p.differentiate(n).evaluate(values) != 0 for n in "xyz"):
        return False
    H = [[p.differentiate(m).differentiate(n).evaluate(values) for n in "xyz"] for m in "xyz"]
    return any(H[i][k] * H[j][l] - H[i][l] * H[j][k]
               for i, j in ((0, 1), (0, 2), (1, 2)) for k, l in ((0, 1), (0, 2), (1, 2)))


def test_verify_node_agrees_with_gradient_predicate():
    rng = random.Random(9)
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    coords = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cases = [(PlaneQuartic(y ** 2 * z ** 2 - x ** 3 * z), [(0, 0, 1), (1, 1, 1)]),
             (PlaneQuartic(x ** 4 + y ** 4 + z ** 4), coords)]
    for a, b in ((2, 3), (-2, 5), (Fraction(1, 2), 3)):
        inp = ParametrizationInput(Fraction(a), Fraction(b))
        quartic = closed_form_quartic(a, b)
        # images of parameter values are points on the curve, most of them smooth
        images = [tuple(f.evaluate({"u": Fraction(rng.randint(-5, 5)), "v": Fraction(1)})
                        for f in build_parametrization(inp)) for _ in range(4)]
        off_curve = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4)]
        cases.append((quartic, coords + images + off_curve))
    verdicts = set()
    for quartic, points in cases:
        for point in points:
            point = tuple(Fraction(c) for c in point)
            if not any(point):
                continue
            expected = _gradient_node_predicate(quartic, point)
            assert verify_node(quartic, point) == expected, (quartic.poly, point)
            verdicts.add((expected, quartic.poly.evaluate(dict(zip("xyz", point))) == 0))
    # nodes, singular or smooth points on the curve, and points off it all occurred
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_compare_up_to_scalar():
    x, y = PLANE.var("x"), PLANE.var("y")
    f = x * x + 2 * y * y
    assert compare_up_to_scalar(f.scale(2), f)
    assert not compare_up_to_scalar(f, f + x ** 2)
    q, _ = implicitize(ParametrizationInput(Fraction(2), Fraction(3)))
    assert compare_up_to_scalar(q.poly, closed_form_quartic(2, 3).poly)


@pytest.mark.parametrize("value", [0.1, 2.0, True, False])
@pytest.mark.parametrize("slot", ["a", "b"])
def test_parameters_refuse_floats_and_bools(slot, value):
    # 0.1 would be read as 3602879701896397/36028797018963968
    args = {"a": Fraction(2), "b": Fraction(3), slot: value}
    with pytest.raises(ImplicitizeError, match=f"^{slot} must be an exact rational"):
        ParametrizationInput(**args)
    assert ParametrizationInput("2/5", 3).a == Fraction(2, 5)
    # the public closed form reads its arguments the same way
    with pytest.raises(ImplicitizeError, match=f"^{slot} must be an exact rational"):
        closed_form_quartic(**args)
    assert closed_form_quartic("2/5", 3).poly == closed_form_quartic(Fraction(2, 5), 3).poly


def test_pullback_vanishes_at_random_points_of_p1():
    # `pullback_zero` substitutes the three quartics into the equation;
    # this checks the same identity pointwise through `evaluate` alone
    rng = random.Random(4)
    done = 0
    while done < 4:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        try:
            inp = ParametrizationInput(a, b)
        except ImplicitizeError:
            continue
        quartic, _ = implicitize(inp)
        xyz = build_parametrization(inp)
        for _ in range(6):
            uv = {"u": Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                  "v": Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 9))}
            image = {n: p.evaluate(uv) for n, p in zip("xyz", xyz)}
            assert any(image.values()), (a, b, uv)
            assert quartic.poly.evaluate(image) == 0, (a, b, uv)
        done += 1
