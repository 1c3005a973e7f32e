"""Differential test of exact linear algebra against sympy (skipped without it)."""

import random
from fractions import Fraction

import pytest

from stratabench import linalg

sp = pytest.importorskip("sympy")


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
