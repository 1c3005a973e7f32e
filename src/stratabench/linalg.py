"""Exact linear algebra over Q (Fraction entries), RREF-based.

Matrices are lists of row lists.  Everything is deterministic: pivots
are chosen left to right, kernels come out in the canonical RREF
parametrisation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]


def rref(M: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    A = [[Fraction(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        nonzero = [(j, y) for j, y in enumerate(A[r]) if y]
        for i, row in enumerate(A):
            f = row[c]
            if i != r and f:
                for j, y in nonzero:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def rank(M: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(M)[1]) if M else 0


def nullspace(M: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Canonical kernel basis (one vector per free column of the RREF)."""
    if not M:
        return []
    A, pivots = rref(M)
    cols = len(M[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -A[r][f]
        basis.append(v)
    return basis


def solve(M: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One exact solution of M x = rhs, or None if inconsistent."""
    if not M:
        return [] if not any(rhs) else None
    cols = len(M[0])
    aug = [list(row) + [Fraction(b)] for row, b in zip(M, rhs)]
    A, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = A[r][cols]
    return x
