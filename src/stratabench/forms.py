"""Dense binary forms and local plane geometry.

A univariate polynomial, or a binary form of formal degree d, is a list
of rational coefficients [c_0, ..., c_d] from the constant term up; the
binary form reads sum c_i s^i t^(d-i).  Trailing zeros of a form are
roots at infinity (t = 0).  These are the exact primitives the model
checks share: gcd, distinct roots, squarefreeness, the Sylvester
matrix, the determinant and the resultant.  The resultant works on the
integer rows of its two lists; only its result is a Fraction.

The local half moves a point of the projective plane to the origin of
an affine chart and reads off vanishing orders and initial forms there.
`localize` builds its translations s + a and t + b directly and leaves
the integer work to `Polynomial.substitute`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv
from typing import Callable, List, Sequence

from . import integer_terms
from .poly import Polynomial, PolynomialError, WeightedRing

PLANE = WeightedRing(("x", "y", "z"), (1, 1, 1))
AFFINE = WeightedRing(("s", "t"), (1, 1))


# -- dense binary forms ----------------------------------------------------------


def _trim(f: Sequence[Fraction]) -> List[Fraction]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def gcd(f: Sequence[Fraction], g: Sequence[Fraction]) -> List[Fraction]:
    """Monic gcd of two univariate polynomials; [] when both vanish."""
    f, g = _trim(f), _trim(g)
    while g:
        # f <- f mod g
        while len(f) >= len(g):
            c = f[-1] / g[-1]
            k = len(f) - len(g)
            for i, gc in enumerate(g):
                f[k + i] -= c * gc
            f = _trim(f)
        f, g = g, f
    return [c / f[-1] for c in f] if f else []


def distinct_roots(f: Sequence[Fraction]) -> int:
    """Number of distinct complex roots of a univariate polynomial.

    Constants and the zero polynomial have none.
    """
    f = _trim(f)
    if len(f) <= 1:
        return 0
    deriv = [i * c for i, c in enumerate(f)][1:]
    return len(f) - len(gcd(f, deriv))


def is_squarefree_form(coeffs: Sequence[Fraction]) -> bool:
    """Is the binary form of formal degree len(coeffs) - 1 squarefree over C?

    The drop in degree in s is the multiplicity of the root at infinity.
    """
    f = _trim(coeffs)
    at_infinity = len(coeffs) - len(f)
    return bool(f) and at_infinity <= 1 and distinct_roots(f) == len(f) - 1


def sylvester(cf: Sequence, cg: Sequence, zero) -> List[list]:
    """Sylvester matrix of two forms of formal degrees m, n >= 0.

    Entries are taken from the coefficient lists as they are, so the
    same function serves scalar and polynomial coefficients; `zero`
    fills the rest.
    """
    m, n = len(cf) - 1, len(cg) - 1
    size = m + n
    M = [[zero] * size for _ in range(size)]
    for r in range(n):
        for k, c in enumerate(cf):
            M[r][r + (m - k)] = c
    for r in range(m):
        for k, c in enumerate(cg):
            M[n + r][r + (n - k)] = c
    return M


def determinant(M: Sequence[Sequence], zero, one, divide: Callable):
    """Determinant by Bareiss fraction-free elimination.

    Entries may be scalars or polynomials.  Every division Bareiss makes
    is exact, and `divide(a, b)` returns that exact quotient a / b.
    """
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, one
    for k in range(n - 1):
        if not A[k][k]:
            pivot = next((r for r in range(k + 1, n) if A[r][k]), None)
            if pivot is None:
                return zero
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = A[k][k] * A[i][j] - A[i][k] * A[k][j]
                A[i][j] = divide(num, prev) if num else zero
        prev = A[k][k]
    det = A[n - 1][n - 1] if n else one
    return det if sign == 1 else -det


def resultant(cf: Sequence[Fraction], cg: Sequence[Fraction]) -> Fraction:
    """Resultant of two binary forms given by formal coefficient lists.

    It vanishes exactly when the forms share a projective root.  The
    lists of formal degrees m and n are scaled to integer rows by the
    lcms Lf and Lg of their denominators, the Sylvester determinant of
    the rows is taken with exact integer division, and the result is
    that determinant over Lf^n * Lg^m.
    """
    if not cf or not cg:
        raise PolynomialError("a binary form needs at least one coefficient")
    (f, Lf), (g, Lg) = (integer_terms(dict(enumerate(c))) for c in (cf, cg))
    det = determinant(sylvester(list(f.values()), list(g.values()), 0), 0, 1, floordiv)
    return Fraction(det, Lf ** (len(cg) - 1) * Lg ** (len(cf) - 1))


# -- local plane geometry ----------------------------------------------------------


def localize(p: Polynomial, point: Sequence[Fraction]) -> Polynomial:
    """Dehomogenise a plane polynomial in the chart of the point's first
    nonzero coordinate and translate the point to the origin of AFFINE."""
    pt = [Fraction(c) for c in point]
    chart = next((i for i in range(3) if pt[i] != 0), None)
    if chart is None:
        raise PolynomialError("(0:0:0) is not a point of the projective plane")
    images = {PLANE.names[chart]: 1}
    others = [i for i in range(3) if i != chart]
    for i, var in zip(others, ((1, 0), (0, 1))):
        images[PLANE.names[i]] = Polynomial(AFFINE, {var: 1, (0, 0): pt[i] / pt[chart]})
    return p.substitute(images)


def vanishing_order(p: Polynomial) -> int:
    """Order of vanishing of an affine polynomial at the origin."""
    if p.is_zero():
        raise PolynomialError("vanishing order of the zero polynomial")
    return min(sum(e) for e in p.terms)


def initial_form(p: Polynomial) -> Polynomial:
    """Lowest-degree homogeneous part of an affine polynomial."""
    m = vanishing_order(p)
    return Polynomial(AFFINE, {e: c for e, c in p.terms.items() if sum(e) == m})


def form_coeffs(F: Polynomial) -> List[Fraction]:
    """Dense coefficients [c_0..c_d] in s of a binary form of degree d in AFFINE."""
    d = F.weighted_degree()
    if d == "inhomogeneous":
        raise PolynomialError("not a binary form")
    coeffs = [Fraction(0)] * (d + 1)
    for (i, _), c in F.terms.items():
        coeffs[i] = c
    return coeffs
