"""Exact linear algebra over Q, RREF-based.

The sparse entry takes integer rows, dicts {column key: int}, and
refuses any other entry, a bool included: `kernel(rows, cols)` reads
the columns in the order of `cols`, and `rank_rows(rows)` in the sorted
order of the keys.  The dense entry, `rref`, `rank`, `nullspace` and
`solve`, takes lists of int or Fraction rows, clears each row of
denominators by their lcm and hands it on with the columns range(n).
Pivots are chosen in column order; kernels come out in the canonical
RREF parametrisation.

One kernel, `_echelon`, runs fraction-free Gauss-Jordan elimination
over Z (in the spirit of Bareiss, Math. Comp. 1968) on copies of the
rows divided by their content, the gcd of their entries.  A row update
is row <- (p/g)*row - (f/g)*pivot_row with g = gcd(p, f), and the row is
divided by its content again, so the integers stay small.  Every row
update spends one step of the step budget under the stage "linalg.rref",
whichever function called the kernel.  Only `rref` builds the dense
rational RREF; the ranks read only the pivots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import Budget

Matrix = List[List[Fraction]]
Row = Dict[Hashable, int]
Rows = Iterable[Mapping[Hashable, int]]


def _integer_rows(M: Sequence[Sequence[Fraction]]) -> Tuple[List[Row], range]:
    """The rows of a dense matrix as their nonzero entries times the lcm
    of their denominators, and its columns; TypeError for a nonzero
    entry that is neither an int nor a Fraction."""
    cols = len(M[0]) if M else 0
    rows = []
    for row in M:
        if len(row) != cols:
            raise ValueError("matrix rows differ in length")
        pairs = []
        for j, x in enumerate(row):
            if not x:
                continue
            if type(x) is not int and type(x) is not Fraction:
                raise TypeError(f"a matrix entry must be an int or a Fraction, got {x!r:.40}")
            pairs.append((j, x.numerator, x.denominator))
        den = lcm(*(d for _, _, d in pairs))
        rows.append({j: n * (den // d) for j, n, d in pairs})
    return rows, range(cols)


def _sparse_rows(rows: Rows) -> List[Row]:
    """The nonzero entries of integer rows, as new dicts; TypeError for
    one that is not an int, a bool included, as the dense entry gives."""
    out = [{j: v for j, v in row.items() if v} for row in rows]
    if not set(map(type, chain.from_iterable(map(dict.values, out)))) <= {int}:
        bad = next(v for row in out for v in row.values() if type(v) is not int)
        raise TypeError(f"a matrix entry must be an int, got {bad!r:.40}")
    return out


def _primitive(row: Row) -> Row:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _echelon(rows: Rows, cols: Iterable[Hashable]) -> Tuple[List[Row], list]:
    """Integer reduced echelon form of the rows over the columns `cols`,
    taken in that order: (rows, pivot columns).

    Row r < len(pivots) has its pivot in column pivots[r] and no other
    nonzero entry in any pivot column; dividing it by that pivot entry
    gives row r of the RREF.  The remaining rows are empty.  `rows` hold
    nonzero ints only, in dicts the kernel may change.
    """
    A = [_primitive(row) for row in rows]
    budget = Budget("linalg.rref")
    pivots: list = []
    r = 0
    for c in cols:
        if r == len(A):
            break
        pivot = next((i for i in range(r, len(A)) if c in A[i]), None)
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
    return A, pivots


def kernel(rows: Rows, cols: Sequence[Hashable]) -> Matrix:
    """Canonical kernel basis of integer rows over the columns `cols`:
    one vector per free column, in column order, each a list of
    Fractions indexed like `cols`."""
    A, pivots = _echelon(_sparse_rows(rows), cols)
    pivot_set, zero = set(pivots), Fraction(0)
    basis = []
    for f in cols:
        if f not in pivot_set:
            v = {c: Fraction(-A[r][f], A[r][c]) for r, c in enumerate(pivots) if f in A[r]}
            v[f] = Fraction(1)
            basis.append([v.get(c, zero) for c in cols])
    return basis


def rank_rows(rows: Sequence[Mapping[Hashable, int]]) -> int:
    """Rank of integer rows whose column keys sort."""
    rows = _sparse_rows(rows)
    return len(_echelon(rows, sorted(set().union(*rows)))[1])


def rref(M: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows, cols = _integer_rows(M)
    A, pivots = _echelon(rows, cols)
    out = [[Fraction(0)] * len(cols) for _ in A]
    for dense, row, c in zip(out, A, pivots):
        for j, v in row.items():
            dense[j] = Fraction(v, row[c])
    return out, pivots


def rank(M: Sequence[Sequence[Fraction]]) -> int:
    return len(_echelon(*_integer_rows(M))[1])


def nullspace(M: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Canonical kernel basis (one vector per free column of the RREF)."""
    return kernel(*_integer_rows(M)) if M else []


def solve(M: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One exact solution of M x = rhs, or None if inconsistent."""
    if len(rhs) != len(M):
        raise ValueError(f"{len(M)} rows but {len(rhs)} right-hand side entries")
    if not M:
        return []
    cols = len(M[0])
    A, pivots = _echelon(*_integer_rows([list(row) + [b] for row, b in zip(M, rhs)]))
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        b = A[r].get(cols)
        if b is not None:
            x[c] = Fraction(b, A[r][c])
    return x
