"""Exact sparse linear algebra over the rationals.

Vectors are dicts key -> Fraction with no zero entries.  `axpy` is the one
accumulation kernel every module uses; `rref` is incremental reduced row
echelon form on sparse rows (dict column -> Fraction) with deterministic
lowest-column pivoting, and `sparse_nullspace` reads a kernel basis off it.
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


def rref(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Reduced row echelon form of the row space, as pivot column -> row."""
    pivots: dict[int, SparseRow] = {}
    for raw in rows:
        row = reduce_row(raw, pivots)
        if not row:
            continue
        col = min(row)
        lead = row[col]
        row = {c: v / lead for c, v in row.items()}
        # keep the basis reduced: clear the new pivot column everywhere
        for prow in pivots.values():
            f = prow.get(col)
            if f is not None:
                axpy(prow, row, -f)
        pivots[col] = row
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
