"""Edge cases of exact linear algebra, against a Fraction reference.

`_reference_rref` is Gauss-Jordan elimination in Fraction arithmetic,
the textbook form of what `linalg.rref` computes over the integers; the
two must agree exactly, entry for entry.
"""

import random
from fractions import Fraction

import pytest

from stratabench import BudgetExceeded, linalg

BIG = 2 ** 64


def _reference_rref(M):
    A = [[Fraction(x) for x in row] for row in M]
    rows, cols = len(A), len(A[0]) if A else 0
    pivots, r = [], 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def _check(M):
    A, pivots = linalg.rref(M)
    assert (A, pivots) == _reference_rref(M)
    assert _all_fractions(A)
    cols = len(M[0]) if M else 0
    for v in linalg.nullspace(M):
        assert all(sum((x * y for x, y in zip(row, v)), Fraction(0)) == 0 for row in M)
    assert len(linalg.nullspace(M)) == (cols - len(pivots) if M else 0)
    return A, pivots


def test_int_and_mixed_entries():
    ints = [[2, 4, -6, 1], [1, 2, -3, 5], [0, 0, 7, 7]]
    A, pivots = _check(ints)
    assert pivots == [0, 2, 3]
    mixed = [[Fraction(1, 2), 3, Fraction(-2, 3)], [4, Fraction(5, 7), 0], [1, 6, Fraction(-4, 3)]]
    assert _check(mixed)[1] == [0, 1]
    assert linalg.rref(mixed) == linalg.rref([[Fraction(x) for x in row] for row in mixed])
    assert linalg.rank(ints) == 3 and linalg.rank(mixed) == 2


def test_large_numerators_and_denominators():
    rng = random.Random(64)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        M = [[Fraction(rng.randint(-BIG - 5, BIG + 5), rng.randint(BIG - 5, BIG + 5))
              if rng.random() < 0.7 else Fraction(0) for _ in range(cols)] for _ in range(rows)]
        _check(M)
    # rows sharing a large content: dividing it out must not change the answer
    k = BIG + 13
    small = [[3, 6, 9, 1], [1, 2, 4, 0], [2, 4, 5, 1]]
    scaled = [[Fraction(k * x, BIG - 59) for x in row] for row in small]
    assert _check(scaled) == _check(small)
    assert _check(small)[1] == [0, 2]


def test_zero_rows_columns_and_degenerate_shapes():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0 and linalg.nullspace([]) == []
    assert linalg.rref([[]]) == ([[]], [])
    assert linalg.rank([[]]) == 0 and linalg.nullspace([[]]) == []
    assert linalg.solve([[]], [0]) == [] and linalg.solve([[]], [1]) is None
    assert linalg.solve([], []) == []
    for M, rhs in (([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 2]), ([], [0])):
        with pytest.raises(ValueError, match="right-hand side"):
            linalg.solve(M, rhs)
    zero = [[0] * 4 for _ in range(3)]
    assert _check(zero) == ([[Fraction(0)] * 4] * 3, [])
    assert linalg.nullspace(zero) == [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    # a zero row above a nonzero one, and a zero column between pivots
    assert _check([[0, 0, 0], [2, 0, 4], [1, 0, 3]]) == (
        [[1, 0, 0], [0, 0, 1], [0, 0, 0]], [0, 2])
    assert _check([[0, 5, Fraction(1, 3), -2]]) == (
        [[0, 1, Fraction(1, 15), Fraction(-2, 5)]], [1])
    assert _check([[0], [Fraction(-3, 4)], [6]]) == ([[1], [0], [0]], [0])
    assert _check([[0], [0]]) == ([[0], [0]], [])
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="rows differ in length"):
            linalg.rref(ragged)


def test_results_are_fractions_never_ints():
    M = [[2, 4, 1], [1, 2, 3]]
    A, _ = linalg.rref(M)
    assert _all_fractions(A)
    kernel = linalg.nullspace(M)
    assert kernel == [[-2, 1, 0]] and _all_fractions(kernel)
    x = linalg.solve(M, [3, 4])
    assert x == [1, 0, 1] and _all_fractions([x])
    assert 1 / x[0] == 1 and type(1 / x[0]) is Fraction
    assert _all_fractions(linalg.nullspace([[0, 0]]))
    assert _all_fractions(linalg.rref([[0, 7], [0, 0]])[0])


def test_rref_spends_one_step_per_row_update(monkeypatch):
    # [[1, 1], [1, 2]]: row 1 is updated by pivot 0, then row 0 by pivot 1
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "2")
    assert linalg.rref([[1, 1], [1, 2]])[1] == [0, 1]
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "1")
    with pytest.raises(BudgetExceeded, match="^rref: spent the step budget of 1;"):
        linalg.rref([[1, 1], [1, 2]])
    # a column that is already clear below and above its pivot costs nothing
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "0")
    assert linalg.rref([[1, 0], [0, 3]]) == ([[1, 0], [0, 1]], [0, 1])
