import random
from fractions import Fraction

import pytest

from stratabench.forms import (AFFINE, PLANE, determinant, distinct_roots, form_coeffs,
                               gcd, initial_form, is_squarefree_form, localize, resultant,
                               sylvester, vanishing_order)
from stratabench.poly import PolynomialError

F = Fraction


def _random_coeffs(rng, degree):
    return [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)]


def _mul(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


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
    s, t = AFFINE.var("s"), AFFINE.var("t")
    node = y * y * z - x * x * (x + z)
    local = localize(node, (F(0), F(0), F(1)))
    assert vanishing_order(local) == 2
    assert initial_form(local) == t * t - s * s
    assert form_coeffs(initial_form(local)) == [F(1), F(0), F(-1)]
    assert vanishing_order(localize(node, (F(1), F(1), F(1)))) == 0


def test_localize_picks_the_chart_of_the_first_nonzero_coordinate():
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    s, t = AFFINE.var("s"), AFFINE.var("t")
    # (0:3:1) lies in the chart y = 1, where it is (x, z) = (0, 1/3)
    assert localize(y, (F(0), F(3), F(1))) == AFFINE.one()
    assert localize(x + z, (F(0), F(3), F(1))) == s + t + AFFINE.const(F(1, 3))
    assert localize(z, (F(2), F(0), F(1))) == t + AFFINE.const(F(1, 2))
    with pytest.raises(PolynomialError, match="not a point"):
        localize(x, (F(0), F(0), F(0)))


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
            f = _mul(_mul(h, h), _random_coeffs(rng, rng.randint(0, 2)))
            g = _mul(h, _random_coeffs(rng, rng.randint(0, 3)))
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
