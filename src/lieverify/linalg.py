"""Exact sparse linear algebra over the rationals.

Vectors are dicts key -> Fraction (or int) with no zero entries.  `axpy` is
the one accumulation kernel every module uses; `rref` is incremental reduced
row echelon form on sparse rows (dict column -> int or Fraction) with
deterministic lowest-column pivoting, and `sparse_nullspace` reads a kernel
basis off it.  Both always return Fraction entries.

Before any rational arithmetic `rref` peels the columns that singleton rows
force to zero, by propagation over the row supports alone (the singleton
step of structured Gaussian elimination, LaMacchia & Odlyzko, CRYPTO '90).
A row with one nonzero entry at column c forces x_c = 0, so the unit row
e_c lies in the row space; striking c from every other row may leave a new
singleton.  Since rows have no zero entries, the row space is spanned by
{e_c : c dead} together with the live parts of the rows, and because RREF
is unique, RREF(rows) is {e_c : c dead} joined with RREF(live parts): the
output is exactly what elimination over every row would give.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, TypeVar

K = TypeVar("K")
SparseRow = dict[int, Fraction]


def axpy(
    acc: dict[K, Fraction], vec: Mapping[K, Fraction], factor: Fraction | int = 1
) -> dict[K, Fraction]:
    """acc += factor * vec in place, dropping entries that cancel to zero.

    Returns `acc`, so a fresh sum reads ``axpy(dict(a), b)``.
    """
    scaled = factor != 1
    for key, val in vec.items():
        if scaled:
            val = factor * val
        prev = acc.get(key)
        if prev is not None:
            val = prev + val
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


def reduce_row(row: SparseRow, pivots: dict[int, SparseRow]) -> SparseRow:
    """Reduce one row against the current pivot rows; result has no pivot cols.

    Pivot rows are fully reduced (they contain no other pivot columns), so
    eliminating each pivot column present in the row once is enough: the
    elimination can only introduce non-pivot columns.
    """
    row = dict(row)
    for col in sorted(c for c in row if c in pivots):
        factor = row.get(col)
        if factor:
            axpy(row, pivots[col], -factor)
    return row


def _forced_zero(rows: list[SparseRow]) -> set[int]:
    """Columns that singleton propagation over the row supports forces to zero.

    Each row keeps only its count of live columns and the sum of their
    indices, so a row whose count drops to 1 names its last column by the sum.
    """
    count = [len(row) for row in rows]
    total = [sum(row) for row in rows]
    touching: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for col in row:
            touching.setdefault(col, []).append(i)
    stack = [i for i, n in enumerate(count) if n == 1]
    dead: set[int] = set()
    while stack:
        i = stack.pop()
        if count[i] != 1:  # its last column died through another row
            continue
        col = total[i]
        dead.add(col)
        for j in touching[col]:
            count[j] -= 1
            total[j] -= col
            if count[j] == 1:
                stack.append(j)
    return dead


def rref(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Reduced row echelon form of the row space, as pivot column -> row.

    Rows hold int or Fraction entries, none zero; the returned rows hold
    Fractions.  Columns forced to zero by singleton rows (`_forced_zero`)
    become unit pivot rows {c: 1} without any rational arithmetic; only the
    live parts of the remaining rows are eliminated.
    RREF is unique, so the result equals elimination over the full rows.
    """
    rows = list(rows)
    dead = _forced_zero(rows)
    pivots: dict[int, SparseRow] = {}
    for raw in rows:
        if dead:
            raw = {c: v for c, v in raw.items() if c not in dead}
            if not raw:
                continue
        row = reduce_row(raw, pivots)
        if not row:
            continue
        col = min(row)
        lead = Fraction(row[col])  # int / int would be a float
        row = {c: v / lead for c, v in row.items()}
        # keep the basis reduced: clear the new pivot column everywhere
        for prow in pivots.values():
            f = prow.get(col)
            if f is not None:
                axpy(prow, row, -f)
        pivots[col] = row
    for col in dead:
        pivots[col] = {col: Fraction(1)}
    return pivots


def rank(rows: Iterable[SparseRow]) -> int:
    return len(rref(rows))


def sparse_nullspace(rows: Iterable[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the kernel of the sparse matrix, one vector per free column.

    Deterministic: pivoting always picks the lowest remaining column, so the
    basis vectors come out in free-column order with unit free coordinate.
    """
    pivots = rref(rows)
    basis: list[SparseRow] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec: SparseRow = {free: Fraction(1)}
        for pcol, prow in pivots.items():
            coeff = prow.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis
