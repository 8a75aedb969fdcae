"""Exact sparse linear algebra over the rationals.

Vectors are dicts key -> Fraction (or int) with no zero entries.  `axpy` is
the one accumulation kernel every module uses.  `_eliminate` is the one
elimination routine: incremental reduced row echelon form on sparse rows
(dict column -> entry) with deterministic lowest-column pivoting, over a
`_Field`, into an `_Echelon`, which indexes each other column by the pivot
rows that hold it, so a new pivot updates only those rows.  A field supplies
how a row becomes field entries, its axpy, how a row is scaled to a leading 1
given its lead, and its 1.  A row on pivot columns alone is deferred, not
reduced.  `rref` runs it over `_Q`, the rationals, then reduces the deferred
rows.  `sparse_nullspace` runs it over `_GF`, the integers mod the prime
2**61 - 1, on rows scaled to integers, and certifies the kernel over the
integers (in the style of Dixon, Numer. Math. 1982): each kernel entry is
lifted to a rational by rational reconstruction, and every lifted vector,
scaled to integers, must have dot product exactly 0 with every input row as
given, deferred ones too.  A failed first certificate reduces the deferred
rows it rejects, a second failure or a failed lift the rest; a third failure
takes the exact `rref`.  Both return Fraction entries.
"""
from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, TypeVar

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


PRIME = (1 << 61) - 1  # the Mersenne prime the kernel is computed modulo
_BOUND = math.isqrt(PRIME // 2)  # 2 * _BOUND**2 < PRIME: reconstruction is unique


def _as_ints(row: Mapping[int, Fraction | int]) -> dict[int, int]:
    """`row` times the lcm of its denominators, as int entries (same line over Q).

    A row that holds no Fraction is returned as it is.
    """
    if Fraction not in map(type, row.values()):
        return row
    scale = math.lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


def _axpy_mod(acc: dict[int, int], vec: Mapping[int, int], factor: int) -> None:
    """acc += factor * vec mod PRIME in place, dropping entries that become 0."""
    for key, val in vec.items():
        val = (acc.get(key, 0) + factor * val) % PRIME
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)


def _normalized_mod(row: dict[int, int], lead: int) -> dict[int, int]:
    inverse = pow(lead, -1, PRIME)
    return {c: v * inverse % PRIME for c, v in row.items()}


class _Field(NamedTuple):
    """What `_eliminate` and `_kernel_basis` need of a field."""
    entries: Callable  # a live row -> a fresh dict of its nonzero entries in the field
    axpy: Callable  # acc += factor * vec in place, dropping entries that become 0
    normalized: Callable  # a row and its lead -> the row scaled to a leading 1
    one: object


_Q = _Field(dict, axpy, lambda row, lead: {c: Fraction(v, lead) for c, v in row.items()},
            Fraction(1))
_GF = _Field(  # rows scaled to integers, so no denominator needs an inverse; entries in [1, PRIME)
    lambda row: {c: r for c, v in _as_ints(row).items() if (r := v % PRIME)},
    _axpy_mod, _normalized_mod, 1)


class _Echelon(dict):
    """A reduced row echelon form over `field`, as pivot column -> row, and
    `holders`: each other column -> the pivot columns whose rows hold it."""

    def __init__(self, field: _Field) -> None:
        super().__init__()
        self.field = field
        self.holders: defaultdict[int, set[int]] = defaultdict(set)

    def reduce(self, row: dict) -> None:
        """Reduce `row` (field entries, consumed); store what is left, if anything,
        as a new pivot row.  Pivot rows hold no other pivot column, so clearing
        each pivot column once, in any order, is enough."""
        add, holders = self.field.axpy, self.holders
        for col in [c for c in row if c in self]:
            add(row, self[col], -row[col])
        if not row:
            return
        col = min(row)
        row = self.field.normalized(row, row[col])
        rest = [c for c in row if c != col]
        for pcol in holders.pop(col, ()):  # keep the basis reduced
            prow = self[pcol]
            add(prow, row, -prow[col])
            for c in rest:  # prow may have gained c (fill-in) or lost it (cancellation)
                (holders[c].add if c in prow else holders[c].discard)(pcol)
        for c in rest:
            holders[c].add(col)
        self[col] = row


def _eliminate(rows: list[SparseRow], field: _Field) -> tuple[_Echelon, list[SparseRow]]:
    """RREF over `field` of the rows that can add a pivot, and the deferred rest,
    raw: `reduce` of their field entries completes RREF(rows).

    A row on pivot columns alone is deferred; every other row is reduced."""
    pivots = _Echelon(field)
    deferred = []
    for raw in rows:
        if raw.keys() <= pivots.keys():
            deferred.append(raw)
        else:
            pivots.reduce(field.entries(raw))
    return pivots, deferred


def rref(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """`_eliminate` over Q, then its deferred rows: rows hold int or Fraction
    entries, none zero; the returned rows hold Fractions."""
    pivots, deferred = _eliminate(list(rows), _Q)
    for row in deferred:
        pivots.reduce(dict(row))
    return pivots


def _lift(a: int) -> Optional[Fraction]:
    """The rational r/s = a mod PRIME with |r|, s <= _BOUND, or None if there is none.

    Rational reconstruction (Wang's half-extended Euclid); the bound makes
    the answer unique when it exists.
    """
    if a <= _BOUND:
        return Fraction(a)
    if PRIME - a <= _BOUND:
        return Fraction(a - PRIME)
    r0, r1, s0, s1 = PRIME, a, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > _BOUND or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _certified(vectors: list[SparseRow], rows: list[SparseRow]) -> list[SparseRow]:
    """The rows with a nonzero dot product with some vector, each vector scaled to
    integers and each row as given: in int for int rows, exact for Fraction ones."""
    touching: dict[int, list[tuple[int, int]]] = {}
    for k, vec in enumerate(vectors):
        for c, v in _as_ints(vec).items():
            touching.setdefault(c, []).append((k, v))
    rejected = []
    for row in rows:
        if touching.keys().isdisjoint(row):
            continue
        dots: dict[int, int] = {}
        for c, a in row.items():
            for k, v in touching.get(c, ()):
                dots[k] = dots.get(k, 0) + a * v
        if any(dots.values()):
            rejected.append(row)
    return rejected


def _kernel_basis(pivots: Mapping[int, Mapping], ncols: int, field: _Field) -> list[dict]:
    """One vector per free column f < ncols: `field.one` at f, -prow[f] at each pivot column."""
    basis = {f: {f: field.one} for f in range(ncols) if f not in pivots}
    for pcol, prow in pivots.items():
        for c, v in prow.items():
            vec = basis.get(c)
            if vec is not None:
                vec[pcol] = -v
    return list(basis.values())


def sparse_nullspace(rows: Iterable[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the kernel of the sparse matrix, one vector per free column.

    Deterministic: the basis is the one `rref` gives (lowest-column pivoting),
    in free-column order with unit free coordinate, and columns are < ncols.
    Every other entry of v_f is at a pivot column below f, so max(v_f) = f.

    It is computed mod PRIME and certified over Z: `_eliminate` reduces over
    `_GF` the rows that can add a pivot, each read-off entry is lifted by
    `_lift`, and every lifted vector, scaled to integers, must have dot product
    exactly 0 with every input row.  If the first certificate fails, the
    deferred rows it rejects are reduced and it tries again; if that fails,
    or a lift fails, the rest are reduced and it tries once more; then it
    falls back to the exact `rref`.  The certified result is exactly that basis:

    - the rows reduced mod p are input rows, and their rank mod p <= their
      rank over Q, since a minor that is nonzero mod p is nonzero over Z; so
      there are at least as many free columns mod p as over Q;
    - the certified vectors lie in ker over Q, and they are independent: v_f
      is 1 at its free column f and 0 at every other free column mod p; so
      the free columns mod p are at most dim ker over Q in number;
    - v_f is supported on f and on pivot columns below f (a pivot row starts
      at its pivot column), so column f is a combination of the columns
      before it over Q, and f is free over Q too;
    - so the two free-column sets are equal, and each v_f is the unique
      kernel vector that is 1 at f and 0 at the other free columns: the
      vector the exact route reads off.
    """
    rows = list(rows)
    pivots, deferred = _eliminate(rows, _GF)
    for first in (True, False, False):
        vectors = [{c: _lift(v % PRIME) for c, v in vec.items()}
                   for vec in _kernel_basis(pivots, ncols, _GF)]
        lifted = not any(None in vec.values() for vec in vectors)
        rejected = _certified(vectors, rows) if lifted else deferred
        if lifted and not rejected:
            return vectors
        if not deferred:
            break
        retry = set(map(id, rejected if first else deferred))
        for row in deferred:
            if id(row) in retry:
                pivots.reduce(_GF.entries(row))
        deferred = [row for row in deferred if id(row) not in retry]
    return _kernel_basis(rref(rows), ncols, _Q)
