"""Exact linear algebra over Q (Fraction entries), RREF-based.

Matrices are lists of row lists.  Everything is deterministic: pivots
are chosen left to right, kernels come out in the canonical RREF
parametrisation.

One kernel, `_echelon`, runs fraction-free Gauss-Jordan elimination
over Z (in the spirit of Bareiss, Math. Comp. 1968).  Each row is a
sparse dict {column: int} of its nonzero entries, cleared of
denominators by their lcm.  A row update is
row <- (p/g)*row - (f/g)*pivot_row with g = gcd(p, f), after which the
row is divided by the gcd of its entries, so the integers stay small.
Every row update spends one step of the step budget under the stage
"linalg.rref", whichever function called the kernel.  The kernel
returns the integer rows and their pivot columns; `rank` reads only the
pivots, `nullspace` and `solve` build only the Fractions they return,
and only `rref` builds the dense rational RREF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import Budget

Matrix = List[List[Fraction]]


def _integer_row(row: Sequence[Fraction]) -> Dict[int, int]:
    """The nonzero entries of a rational row times the lcm of their
    denominators, divided by the gcd of the results; TypeError for a
    nonzero entry that is neither an int nor a Fraction."""
    pairs = []
    for j, x in enumerate(row):
        if not x:
            continue
        if type(x) is not int and type(x) is not Fraction:
            raise TypeError(f"a matrix entry must be an int or a Fraction, got {x!r:.40}")
        pairs.append((j, x.numerator, x.denominator))
    den = lcm(*(d for _, _, d in pairs))
    return _primitive({j: n * (den // d) for j, n, d in pairs})


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _echelon(M: Sequence[Sequence[Fraction]]) -> Tuple[List[Dict[int, int]], List[int], int]:
    """Integer reduced echelon form: (rows, pivot columns, column count).

    Row r < len(pivots) has its pivot in column pivots[r] and no other
    nonzero entry in any pivot column; dividing it by that pivot entry
    gives row r of the RREF.  The remaining rows are empty.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if any(len(row) != cols for row in M):
        raise ValueError("matrix rows differ in length")
    A = [_integer_row(row) for row in M]
    budget = Budget("linalg.rref")
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if c in A[i]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        prow = A[r]
        p = prow[c]
        for i, row in enumerate(A):
            f = row.get(c)
            if f is None or i == r:
                continue
            budget.spend()
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                s = row.get(j, 0) - b * v
                if s:
                    row[j] = s
                else:
                    del row[j]
            A[i] = _primitive(row)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots, cols


def rref(M: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    A, pivots, cols = _echelon(M)
    zero = Fraction(0)
    out = []
    for i, row in enumerate(A):
        dense = [zero] * cols
        if i < len(pivots):
            p = row[pivots[i]]
            for j, v in row.items():
                dense[j] = Fraction(v, p)
        out.append(dense)
    return out, pivots


def rank(M: Sequence[Sequence[Fraction]]) -> int:
    return len(_echelon(M)[1]) if M else 0


def nullspace(M: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Canonical kernel basis (one vector per free column of the RREF)."""
    if not M:
        return []
    A, pivots, cols = _echelon(M)
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [zero] * cols
        v[f] = one
        for r, c in enumerate(pivots):
            x = A[r].get(f)
            if x is not None:
                v[c] = Fraction(-x, A[r][c])
        basis.append(v)
    return basis


def solve(M: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One exact solution of M x = rhs, or None if inconsistent."""
    if len(rhs) != len(M):
        raise ValueError(f"{len(M)} rows but {len(rhs)} right-hand side entries")
    if not M:
        return []
    cols = len(M[0])
    A, pivots, _ = _echelon([list(row) + [b] for row, b in zip(M, rhs)])
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        b = A[r].get(cols)
        if b is not None:
            x[c] = Fraction(b, A[r][c])
    return x
