"""Differential tests of exact linear algebra against the definitions of
rank, kernel and solution, and against sympy where it is installed."""

import random
from fractions import Fraction

import pytest

from stratabench import linalg

try:
    import sympy as sp
except ImportError:
    sp = None

needs_sympy = pytest.mark.skipif(sp is None, reason="sympy is not installed")


def _random_matrix(rng):
    """A small matrix whose rank is often below both dimensions."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    rank = rng.randint(0, min(rows, cols))
    left = [[Fraction(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(rows)]
    right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def _sympy(M):
    return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in M])


def _fractions(v):
    return [Fraction(int(x.p), int(x.q)) for x in v]


@needs_sympy
def test_rref_and_nullspace_match_sympy():
    rng = random.Random(1968)
    for _ in range(60):
        M = _random_matrix(rng)
        A, pivots = linalg.rref(M)
        theirs, their_pivots = _sympy(M).rref()
        assert pivots == list(their_pivots)
        assert A == [_fractions(theirs.row(i)) for i in range(theirs.rows)]
        assert linalg.rank(M) == len(their_pivots)
        assert linalg.nullspace(M) == [_fractions(v) for v in _sympy(M).nullspace()]


def _mixed_matrix(rng, k):
    """A seeded matrix mixing int 0, ints and Fractions; the first cases
    are the zero matrix and the 1 x n and n x 1 shapes, and some later
    ones get all-zero rows or are built with a low rank."""
    shapes = [(3, 4), (1, rng.randint(1, 7)), (rng.randint(1, 7), 1)]
    rows, cols = shapes[k] if k < len(shapes) else (rng.randint(1, 7), rng.randint(1, 7))
    if k == 0:
        return [[0] * cols for _ in range(rows)]
    if k % 4 == 3:
        M = [[Fraction(x) for x in row] for row in _random_matrix(rng)]
    else:
        M = [[rng.choice([0, 0, 0, rng.randint(-3, 3),
                          Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
              for _ in range(cols)] for _ in range(rows)]
    if k % 5 == 4:
        M[rng.randrange(len(M))] = [0] * len(M[0])
    return M


def _times(M, v):
    return [sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in M]


def test_rank_kernel_and_solve_match_their_definitions():
    rng = random.Random(14)
    for k in range(200):
        M = _mixed_matrix(rng, k)
        rows, cols = len(M), len(M[0])
        _, pivots = linalg.rref(M)
        assert linalg.rank(M) == len(pivots)
        free = [c for c in range(cols) if c not in pivots]
        kernel = linalg.nullspace(M)
        assert len(kernel) == len(free)
        for f, v in zip(free, kernel):
            assert [v[g] for g in free] == [int(g == f) for g in free]
            assert _times(M, v) == [0] * rows
        if sp is not None:
            assert kernel == [_fractions(v) for v in _sympy(M).nullspace()]
        rhs = [rng.choice([0, rng.randint(-2, 2), Fraction(rng.randint(-3, 3), 2)])
               for _ in range(rows)]
        _, aug_pivots = linalg.rref([list(row) + [b] for row, b in zip(M, rhs)])
        x = linalg.solve(M, rhs)
        assert (x is None) == (cols in aug_pivots)
        if x is not None:
            assert _times(M, x) == rhs
