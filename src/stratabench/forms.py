"""Dense binary forms and local plane geometry.

A univariate polynomial, or a binary form of formal degree d, is a list
of Fraction coefficients [c_0, ..., c_d] from the constant term up; the
binary form reads sum c_i s^i t^(d-i).  Trailing zeros of a form are
roots at infinity (t = 0).  These are the exact primitives the model
checks share: gcd, distinct roots, squarefreeness, the Sylvester
matrix, the determinant and the resultant.

The local half moves a point of the projective plane to the origin of
an affine chart and reads off vanishing orders and initial forms there.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv
from typing import Callable, Dict, List, Sequence

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

    It vanishes exactly when the forms share a projective root.
    """
    return determinant(sylvester(cf, cg, Fraction(0)), Fraction(0), Fraction(1), truediv)


# -- local plane geometry ----------------------------------------------------------


def localize(p: Polynomial, point: Sequence[Fraction], chart: int) -> Polynomial:
    """Dehomogenise a plane polynomial in the given chart and translate
    the point to the origin of AFFINE."""
    pt = [Fraction(c) for c in point]
    scale = pt[chart]
    pt = [c / scale for c in pt]
    s, t = AFFINE.var("s"), AFFINE.var("t")
    others = [i for i in range(3) if i != chart]
    images: Dict[str, Polynomial] = {PLANE.names[chart]: AFFINE.one()}
    images[PLANE.names[others[0]]] = s + AFFINE.const(pt[others[0]])
    images[PLANE.names[others[1]]] = t + AFFINE.const(pt[others[1]])
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
