"""Dense binary forms and local plane geometry.

A univariate polynomial, or a binary form of formal degree d, is a list
of rational coefficients [c_0, ..., c_d] from the constant term up; the
binary form reads sum c_i s^i t^(d-i).  Trailing zeros of a form are
roots at infinity (t = 0).  These are the exact primitives the model
checks share: product, gcd, distinct roots, squarefreeness, the
Sylvester matrix, the determinant and the resultant.  The gcd and the
resultant work on the integer rows of their lists; only their results
are Fractions.

The local half reads the vanishing order and the initial form of a
plane polynomial at a point, in the chart of the point's first nonzero
coordinate, from the lowest Taylor terms there; it builds no translated
polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, gcd as igcd, lcm
from operator import floordiv
from typing import Callable, Dict, List, Sequence, Tuple

from . import integer_terms
from .poly import Polynomial, PolynomialError, WeightedRing

PLANE = WeightedRing(("x", "y", "z"), (1, 1, 1))


# -- dense binary forms ----------------------------------------------------------


def _trim(f: Sequence[Fraction]) -> List[Fraction]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _primitive(f: Sequence[Fraction]) -> List[int]:
    """The integer row of f, trailing zeros dropped, divided by its content."""
    row = list(integer_terms(dict(enumerate(_trim(f))))[0].values())
    content = igcd(*row)
    return [c // content for c in row] if content > 1 else row


def product(f: Sequence[Fraction], g: Sequence[Fraction]) -> List[Fraction]:
    """Product of two nonempty coefficient lists; the formal degrees add."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def gcd(f: Sequence[Fraction], g: Sequence[Fraction]) -> List[Fraction]:
    """Monic gcd of two univariate polynomials; [] when both vanish.

    The remainder sequence runs on primitive integer rows: each
    pseudo-remainder is divided by its content (Collins, "Subresultants
    and reduced polynomial remainder sequences", J. ACM 1967), and only
    the monic result is made of Fractions.
    """
    f, g = _primitive(f), _primitive(g)
    while g:
        # f <- the primitive part of the pseudo-remainder of f by g
        while len(f) >= len(g):
            h = igcd(f[-1], g[-1])
            cf, cg, k = g[-1] // h, f[-1] // h, len(f) - len(g)
            f = [cf * c for c in f[:-1]]
            for i, c in enumerate(g[:-1]):
                f[k + i] -= cg * c
            f = _trim(f)
        content = igcd(*f)
        f, g = g, [c // content for c in f] if content > 1 else f
    return [Fraction(c, f[-1]) for c in f] if f else []


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


def initial_form_at(p: Polynomial, point: Sequence[Fraction]) -> Tuple[int, List[Fraction]]:
    """(order, coeffs): the vanishing order m of a plane polynomial at a
    point and the dense coefficients [c_0..c_m] of its initial form there.

    The polynomial is dehomogenised in the chart of the point's first
    nonzero coordinate, and s, t are the affine coordinates X - a, Y - b
    of the two other variables X, Y, in their order, at the point (a, b);
    the initial form is sum c_i s^i t^(m-i).  No translated polynomial is
    built.  The point is cleared to integers (P_0 : P_1 : P_2), so that
    a = A/P and b = B/P over its chart coordinate P, and the dehomogenised
    polynomial q to an integer row over the lcm L of its denominators.
    Then the Taylor coefficient of s^i t^j, of degree k = i + j, is

        sum_(e, f) N P^(T-e-f) C(e, i) A^(e-i) C(f, j) B^(f-j)

    over L P^(T-k), summed over the terms N X^e Y^f of q, where T is the
    top total degree of q.  Degrees k = 0, 1, 2, ... are tried in turn up
    to the first with a nonzero term; q is nonzero, so one has.
    PolynomialError for (0:0:0), for a variable other than x, y and z,
    and for a polynomial that vanishes in the chart.
    """
    pt = [Fraction(c) for c in point[:3]]
    chart = next((i for i in range(3) if pt[i] != 0), None)
    if chart is None:
        raise PolynomialError("(0:0:0) is not a point of the projective plane")
    names = p.ring.names
    if names != PLANE.names:
        missing = [n for n in p.variables_used() if n not in PLANE.names]
        if missing:
            raise PolynomialError(f"missing assignment for {missing}")
    den = lcm(*[c.denominator for c in pt])
    P, A, B = (pt[i].numerator * (den // pt[i].denominator)
               for i in (chart, *(i for i in range(3) if i != chart)))
    i0, i1 = (names.index(PLANE.names[i]) if PLANE.names[i] in names else -1
              for i in range(3) if i != chart)
    ints, L = integer_terms(p.terms)
    q: Dict[Tuple[int, int], int] = {}
    for e, N in ints.items():
        key = (e[i0] if i0 >= 0 else 0, e[i1] if i1 >= 0 else 0)
        q[key] = q.get(key, 0) + N
    T = max((e + f for (e, f), N in q.items() if N), default=None)
    if T is None:
        raise PolynomialError("vanishing order of the zero polynomial")
    terms = [(e, f, N * P ** (T - e - f)) for (e, f), N in q.items() if N]
    for k in count():
        coeffs = [sum(w * comb(e, i) * A ** (e - i) * comb(f, k - i) * B ** (f - k + i)
                      for e, f, w in terms if e >= i and f >= k - i)
                  for i in range(k + 1)]
        if any(coeffs):
            return k, [Fraction(c, L * P ** (T - k)) for c in coeffs]
