import random
from fractions import Fraction

import pytest

from stratabench.forms import (PLANE, determinant, distinct_roots, gcd, initial_form_at,
                               is_squarefree_form, product, resultant, sylvester)
from stratabench.poly import Polynomial, PolynomialError, WeightedRing

F = Fraction
AFFINE = WeightedRing(("s", "t"), (1, 1))


def _random_coeffs(rng, degree):
    return [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)]


def _value(f, z):
    return sum(c * z ** i for i, c in enumerate(f))


def test_gcd_and_distinct_roots_examples():
    # (z - 1)^2 (z + 2) and (z - 1)(z + 3)
    f = [F(2), F(-3), F(0), F(1)]
    g = [F(-3), F(2), F(1)]
    assert gcd(f, g) == [F(-1), F(1)]
    assert gcd(f, []) == f
    assert gcd([], [F(0)]) == []
    assert distinct_roots(f) == 2
    assert distinct_roots([F(1), F(0), F(2), F(0), F(1)]) == 2   # (z^2 + 1)^2
    assert distinct_roots([F(5)]) == 0
    assert distinct_roots([]) == 0


def test_is_squarefree_form_at_infinity():
    # s*t: simple roots at 0 and at infinity
    assert is_squarefree_form([F(0), F(1), F(0)])
    # t^2: a double root at infinity
    assert not is_squarefree_form([F(1), F(0), F(0)])
    # s^2 t (formal degree 3): a simple root at infinity, a double one at 0
    assert not is_squarefree_form([F(0), F(0), F(1), F(0)])
    # (s - t)(s + t) t: three simple roots, one of them at infinity
    assert is_squarefree_form([F(-1), F(0), F(1), F(0)])
    # constants of formal degree 0 and 1
    assert is_squarefree_form([F(3)])
    assert is_squarefree_form([F(3), F(0)])
    assert not is_squarefree_form([F(0), F(0)])


def test_resultant_examples():
    # s - t and s - 2t share no root; s - t and 2s - 2t share one
    assert resultant([F(-1), F(1)], [F(-2), F(1)]) != 0
    assert resultant([F(-1), F(1)], [F(-2), F(2)]) == 0
    # a common root at infinity: both forms have formal degree above their degree
    assert resultant([F(1), F(0)], [F(2), F(1), F(0)]) == 0
    assert resultant([1, 0], [2, 1, 0]) == 0
    # a1*b0 - a0*b1 for linear forms, over the denominators 3, 2 and 5
    assert resultant([F(-1, 3), F(1, 2)], [F(1), F(1, 5)]) == F(17, 30)
    assert type(resultant([1, 2], [3, 4])) is F
    for cf, cg in (([], [1, 2]), ([1, 2], []), ([], [])):
        with pytest.raises(PolynomialError, match="at least one coefficient"):
            resultant(cf, cg)
    assert sylvester([1, 2], [3, 4, 5], 0) == [[2, 1, 0], [0, 2, 1], [5, 4, 3]]


def test_local_geometry():
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    node = y * y * z - x * x * (x + z)
    # the initial form t^2 - s^2 at the node (0:0:1)
    assert initial_form_at(node, (F(0), F(0), F(1))) == (2, [F(1), F(0), F(-1)])
    assert initial_form_at(node, (F(1), F(1), F(1)))[0] == 0


def test_initial_form_at_picks_the_chart_of_the_first_nonzero_coordinate():
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    # (0:3:1) lies in the chart y = 1, where it is (x, z) = (0, 1/3), so
    # s = x and t = z - 1/3
    assert initial_form_at(y, (F(0), F(3), F(1))) == (0, [F(1)])
    assert initial_form_at(x + z, (F(0), F(3), F(1))) == (0, [F(1, 3)])
    assert initial_form_at(x, (F(0), F(3), F(1))) == (1, [F(0), F(1)])
    assert initial_form_at(3 * z - y, (F(0), F(3), F(1))) == (1, [F(3), F(0)])
    # (2:0:1) lies in the chart x = 1, where it is (y, z) = (0, 1/2)
    assert initial_form_at(z, (F(2), F(0), F(1))) == (0, [F(1, 2)])
    assert initial_form_at(2 * z - x, (F(2), F(0), F(1))) == (1, [F(2), F(0)])
    with pytest.raises(PolynomialError, match="not a point"):
        initial_form_at(x, (F(0), F(0), F(0)))


def _translate_and_read(p, point):
    """Reference for initial_form_at: translate the point to the origin of
    the chart of its first nonzero coordinate with Polynomial.substitute,
    then read the lowest homogeneous part off the translate."""
    pt = [F(c) for c in point]
    chart = next((i for i in range(3) if pt[i] != 0), None)
    if chart is None:
        raise PolynomialError("(0:0:0) is not a point of the projective plane")
    images = {PLANE.names[chart]: 1}
    others = [i for i in range(3) if i != chart]
    for i, var in zip(others, ((1, 0), (0, 1))):
        images[PLANE.names[i]] = Polynomial(AFFINE, {var: 1, (0, 0): pt[i] / pt[chart]})
    local = p.substitute(images)
    if local.is_zero():
        raise PolynomialError("vanishing order of the zero polynomial")
    order = min(sum(e) for e in local.terms)
    coeffs = [F(0)] * (order + 1)
    for (i, j), c in local.terms.items():
        if i + j == order:
            coeffs[i] = c
    return order, coeffs


def _sympy_lowest_part(sp, p, point):
    """Reference for initial_form_at: sympy's lowest homogeneous part of p
    at the point, in the same chart and affine coordinates."""
    xyz, (s, t) = sp.symbols("x y z"), sp.symbols("s t")
    chart = next(i for i in range(3) if point[i] != 0)
    (i0, a), (i1, b) = ((i, sp.Rational(str(point[i] / point[chart])))
                        for i in range(3) if i != chart)
    expr = sum(sp.Rational(str(c)) * sp.prod(v ** k for v, k in zip(xyz, e))
               for e, c in p.terms.items())
    local = sp.Poly(sp.expand(expr.subs({xyz[chart]: 1, xyz[i0]: s + a, xyz[i1]: t + b},
                                        simultaneous=True)), s, t)
    if local.is_zero:
        return None
    order = min(i + j for i, j in local.monoms())
    return order, [F(str(local.coeff_monomial(s ** i * t ** (order - i))))
                   for i in range(order + 1)]


def _outcome(f, *args):
    try:
        return f(*args)
    except PolynomialError as exc:
        return "error", str(exc)


def _random_plane_poly(rng, degree, homogeneous):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        d = degree if homogeneous else rng.randint(0, degree)
        i = rng.randint(0, d)
        j = rng.randint(0, d - i)
        terms[(i, j, d - i - j)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(PLANE, terms)


def test_initial_form_at_matches_the_translate_and_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(2021)
    seen = set()
    for trial in range(240):
        degree, homogeneous = rng.randint(0, 5), trial % 2 == 0
        point = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        # cycle through the three charts: the coordinates before the chart vanish
        chart = trial % 3
        point[:chart] = [F(0)] * chart
        if point[chart] == 0:
            point[chart] = F(rng.choice((-2, 1, 3)), rng.randint(1, 2))
        p = _random_plane_poly(rng, degree, homogeneous)
        # force the point onto the curve, then (one time in three) onto a
        # singular point of it, by a product of two curves through it
        if trial % 4:
            values = {n: c / point[chart] for n, c in zip(PLANE.names, point)}
            p -= PLANE.var(PLANE.names[chart]) ** degree * p.evaluate(values)
            if trial % 3 == 0:
                q = _random_plane_poly(rng, 2, homogeneous)
                q -= PLANE.var(PLANE.names[chart]) ** 2 * q.evaluate(values)
                p *= q
        expected = _outcome(_translate_and_read, p, point)
        assert _outcome(initial_form_at, p, point) == expected, (p, point)
        if expected[0] == "error":
            # forcing a constant onto the curve leaves zero, and an
            # inhomogeneous polynomial can vanish in the chart
            assert expected[1] == "vanishing order of the zero polynomial"
            continue
        if trial % 4 == 0 or trial % 3 == 0:
            assert _sympy_lowest_part(sp, p, point) == expected, (p, point)
        seen.add((chart, expected[0]))
    # every chart, and orders 0 to 3 at least, occurred
    assert {c for c, _ in seen} == {0, 1, 2}
    assert {m for _, m in seen} >= {0, 1, 2, 3}


def test_initial_form_at_raises_as_the_translate_does():
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    s = AFFINE.var("s")
    cases = [
        # y z^2 - y z dehomogenises to y - y = 0 in the chart z = 1
        (y * z ** 2 - y * z, (F(0), F(0), F(3))),
        (PLANE.zero(), (F(1), F(2), F(3))),
        (x + y, (F(0), F(0), F(0))),
        (s + 1, (F(1), F(0), F(0))),
    ]
    for p, point in cases:
        got = _outcome(initial_form_at, p, point)
        assert got[0] == "error" and got == _outcome(_translate_and_read, p, point)
    # in another chart the same polynomial has an initial form
    assert initial_form_at(y * z ** 2 - y * z, (F(0), F(1), F(1))) == (1, [F(1), F(0)])


def test_product_adds_formal_degrees():
    assert product([F(1)], [F(2), F(3)]) == [F(2), F(3)]
    # s t^2 (formal degree 3) times t - s: the roots at infinity add up
    assert product([F(0), F(1), F(0), F(0)], [F(1), F(-1)]) == [F(0), F(1), F(-1), F(0), F(0)]
    rng = random.Random(5)
    for _ in range(20):
        f, g = _random_coeffs(rng, rng.randint(0, 4)), _random_coeffs(rng, rng.randint(0, 4))
        fg, z = product(f, g), F(rng.randint(-5, 5), rng.randint(1, 4))
        assert len(fg) == len(f) + len(g) - 1
        assert _value(fg, z) == _value(f, z) * _value(g, z)


def _fraction_gcd(f, g):
    """Reference gcd: the Euclidean remainder sequence over Fractions, made monic."""
    f, g = _trim(f), _trim(g)
    while g:
        while len(f) >= len(g):
            c = f[-1] / g[-1]
            k = len(f) - len(g)
            for i, gc in enumerate(g):
                f[k + i] -= c * gc
            f = _trim(f)
        f, g = g, f
    return [c / f[-1] for c in f] if f else []


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def test_gcd_matches_the_fraction_gcd():
    rng = random.Random(1967)
    cases = [([], []), ([F(0)], []), ([], [F(0), F(0)]), ([F(3, 2)], []), ([], [F(0), F(-2, 5)]),
             ([F(1), F(2), F(0), F(0)], [F(0), F(0)]), ([F(2), F(-3), F(1)], [F(-4), F(2), F(0)])]
    for trial in range(400):
        f, g = _random_coeffs(rng, rng.randint(0, 5)), _random_coeffs(rng, rng.randint(0, 5))
        if trial % 3 == 0:
            # a common factor, repeated in f
            h = _random_coeffs(rng, rng.randint(1, 2))
            f, g = product(product(h, h), f), product(h, g)
        # trailing zeros (roots at infinity) and zero lists
        f += [F(0)] * rng.choice((0, 0, 1, 2))
        g = [F(0)] * len(g) if trial % 11 == 0 else g + [F(0)] * rng.choice((0, 1))
        cases.append((f, g))
    for f, g in cases:
        ours = gcd(f, g)
        assert ours == _fraction_gcd(f, g), (f, g)
        assert all(type(c) is F for c in ours)
        assert gcd(g, f) == ours


def test_against_sympy():
    sp = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester as sylvester_matrix
    z = sp.Symbol("z")
    rng = random.Random(20211)

    def to_sympy(coeffs):
        return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
                       or [0], z, domain="QQ")

    def formal_sylvester_det(f, g):
        # highest coefficient first, n rows of f and m rows of g
        m, n = len(f) - 1, len(g) - 1
        rat = [sp.Rational(c.numerator, c.denominator) for c in reversed(f)]
        rows = [[0] * r + rat + [0] * (n - 1 - r) for r in range(n)]
        rat = [sp.Rational(c.numerator, c.denominator) for c in reversed(g)]
        rows += [[0] * r + rat + [0] * (m - 1 - r) for r in range(m)]
        return sp.Matrix(rows).det() if rows else 1

    for trial in range(60):
        if trial % 3 == 0:
            # f has the repeated factor h, which g shares
            h = _random_coeffs(rng, 1)
            f = product(product(h, h), _random_coeffs(rng, rng.randint(0, 2)))
            g = product(h, _random_coeffs(rng, rng.randint(0, 3)))
        else:
            f = _random_coeffs(rng, rng.randint(0, 5))
            g = _random_coeffs(rng, rng.randint(0, 5))
        pf, pg = to_sympy(f), to_sympy(g)
        ours = gcd(f, g)
        if ours:
            assert len(ours) - 1 == sp.gcd(pf, pg).degree()
        else:
            assert pf.is_zero and pg.is_zero
        if not pf.is_zero:
            assert distinct_roots(f) == sp.sqf_part(pf).degree()
        if len(f) >= 2 and len(g) >= 2 and f[-1] and g[-1]:
            # sympy's own Sylvester matrix; sp.resultant may differ by (-1)^(mn)
            det = sylvester_matrix(pf.as_expr(), pg.as_expr(), z).det()
            assert resultant(f, g) == F(str(det))
            assert (resultant(f, g) == 0) == (sp.gcd(pf, pg).degree() > 0)
        # formal degrees: a zero leading coefficient is a root at infinity,
        # which both forms have in one trial in four and g alone in another;
        # the denominators, up to 12, differ between the two lists
        f = [c / rng.randint(1, 12) for c in f] + ([F(0)] if trial % 4 == 1 else [])
        g = [c / rng.randint(1, 12) for c in g] + ([F(0)] if trial % 4 in (1, 2) else [])
        assert resultant(f, g) == F(str(formal_sylvester_det(f, g)))
        if not f[-1] and not g[-1]:
            assert resultant(f, g) == 0


def test_determinant_matches_sympy():
    sp = pytest.importorskip("sympy")
    from operator import truediv

    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(0, 5)
        # sparse entries force row swaps; a repeated row makes some singular
        M = [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
              for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.25:
            M[-1] = list(M[0])
        expected = sp.Matrix(n, n, [sp.Rational(x.numerator, x.denominator)
                                    for row in M for x in row]).det() if n else 1
        assert determinant(M, F(0), F(1), truediv) == F(str(expected))


def test_point_checks_build_no_polynomial(monkeypatch):
    # classify_point at the Z4 node and verify_node at the three
    # coordinate points of the (2, 3) quartic read their initial forms
    # off Taylor terms: no Polynomial is built and none is substituted
    from stratabench.bidouble import classify_point, known_examples
    from stratabench.implicitize import closed_form_quartic, verify_node

    bd, quartic = known_examples("Z4"), closed_form_quartic(F(2), F(3))
    work = []
    of, init, substitute = Polynomial._of, Polynomial.__init__, Polynomial.substitute

    def counting_of(cls, ring, terms):
        work.append("built")
        return of(ring, terms)

    def counting_init(self, ring, terms):
        work.append("built")
        init(self, ring, terms)

    def counting_substitute(self, assignment):
        work.append("substitute")
        return substitute(self, assignment)

    monkeypatch.setattr(Polynomial, "_of", classmethod(counting_of))
    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(Polynomial, "substitute", counting_substitute)
    assert classify_point(bd, (F(0), F(0), F(1))).tag == "elliptic-degree-4"
    assert all(verify_node(quartic, p) for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert work == []
    # the wrappers do count: a variable is one polynomial built
    PLANE.var("x")
    assert work == ["built"]
