"""Independent cross-check helpers shared by the solver, TPA and acceptance tests.

`dense_nullspace` is a textbook fraction-free Gauss-Jordan on a dense
integer matrix, kept deliberately separate from the package's sparse
elimination.  The interior-dimension computation is reimplemented on top
of it so it shares no sparse bookkeeping with the production path.
`compatibility_oracle` writes the transposed-Poisson law out term by term,
beside the package's route through the 1/2-derivation residual, and
`associativity_oracle` forms (x*y)*z - x*(y*z) from `product` elements,
beside the package's dict residual.
`check_left_mult` checks that left multiplication by one fixed z is a
1/2-derivation, the identity the package checks for every z at once as the
compatibility law; it runs on the `Fraction` route of `derivation_residual`,
not on the solver's integer re-check.
`residual_rows` rebuilds the solver's linear system one column at a time
from `derivation_residual` of a unit map, beside `assemble_system`, which
accumulates whole rows at once.
`axiom_oracle` writes skew-symmetry, grading and the Jacobi identity out as
`Element` sums of `bracket`s over `Fraction`, beside the package's checks,
which run in `int` on the scaled bracket memo.
"""
import functools
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd
from typing import Sequence

from lieverify.core import BasisSymbol, Element, Report, bilinear, bracket, window_check
from lieverify.derivations import (
    _is_core,
    assemble_system,
    build_unknowns,
    derivation_residual,
)
from lieverify.tpa import ProductSpec, product, product_symbols

F = Fraction


def _integerize(row: Sequence[Fraction | int]) -> list[int]:
    if all(type(v) is int for v in row):
        return row
    denom = 1
    for v in row:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def dense_nullspace(matrix: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis by dense integer Gauss-Jordan (the cross-check oracle).

    Rows are cleared to integers and reduced with exact cross-multiplication;
    no sparse bookkeeping is shared with `sparse_nullspace`.
    """
    echelon: list[list[int]] = []
    pivot_cols: list[int] = []
    for raw in matrix:
        row = _integerize(raw)
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        # eliminate known pivots
        for prow, pcol in zip(echelon, pivot_cols):
            if row[pcol]:
                a, b = prow[pcol], row[pcol]
                row = [a * rv - b * pv for rv, pv in zip(row, prow)]
        if not any(row):
            continue
        col = next(i for i, v in enumerate(row) if v)
        g = 0
        for v in row:
            g = gcd(g, abs(v))
        if g > 1:
            row = [v // g for v in row]
        if row[col] < 0:
            row = [-v for v in row]
        # back-eliminate the new pivot from earlier rows
        for k, (prow, pcol) in enumerate(zip(echelon, pivot_cols)):
            if prow[col]:
                a, b = row[col], prow[col]
                newrow = [a * pv - b * rv for pv, rv in zip(prow, row)]
                g = 0
                for v in newrow:
                    g = gcd(g, abs(v))
                if g > 1:
                    newrow = [v // g for v in newrow]
                if newrow[pcol] < 0:
                    newrow = [-v for v in newrow]
                echelon[k] = newrow
        # keep rows ordered by pivot column
        insert_at = sum(1 for pc in pivot_cols if pc < col)
        echelon.insert(insert_at, row)
        pivot_cols.insert(insert_at, col)

    pivot_set = set(pivot_cols)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for prow, pcol in zip(echelon, pivot_cols):
            if prow[free]:
                vec[pcol] = Fraction(-prow[free], prow[pcol])
        basis.append(vec)
    return basis


def dense_rank(rows):
    """Row rank over the rationals by plain Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_interior_dim(spec, g2, window, delta=F(1, 2)):
    """Interior dimension via the dense nullspace oracle."""
    unknowns, rows = assemble_system(spec, g2, window, delta)
    n = len(unknowns)
    dense = [[row.get(c, 0) for c in range(n)] for row in rows]
    vectors = dense_nullspace(dense, n)
    core_cols = [i for i, u in enumerate(unknowns) if _is_core(u, window.n_core2)]
    projections = [[v[c] for c in core_cols] for v in vectors]
    return dense_rank(projections)


def residual_rows(spec, g2, window, delta=F(1, 2)):
    """Rows of the degree-g2 system, one `derivation_residual` per entry.

    Column (src, tgt) is the residual of the unit map e(src -> tgt), which
    is nonzero only at pairs (x, y) with src = x, src = y or src in [x, y].
    One row per pair and output symbol, as `assemble_system` lays them out.
    """
    unknowns = build_unknowns(spec, g2, window)
    pairs = list(combinations(spec.basis_symbols(window.n_eq2), 2))
    touching = defaultdict(set)  # src -> pairs whose residual reads phi(src)
    for i, (x, y) in enumerate(pairs):
        for sym in (x, y, *bracket(spec, x, y).terms):
            touching[sym].add(i)
    rows = defaultdict(dict)  # (pair, output symbol) -> {column: value}
    for col, (src, tgt) in enumerate(unknowns):
        unit = {src: Element.basis(tgt)}
        for i in touching[src]:
            for sym, value in derivation_residual(spec, unit, *pairs[i], delta).items():
                rows[i, sym][col] = value
    return unknowns, list(rows.values())


def compatibility_oracle(prod, x, y, z):
    """2*z*[x,y] - [z*x,y] - [x,z*y], formed as three separate elements."""
    spec = prod.algebra
    zxy = product(prod, z, bracket(spec, x, y)).scale(2)
    return zxy - bracket(spec, product(prod, z, x), y) - bracket(spec, x, product(prod, z, y))


def associativity_oracle(prod, x, y, z):
    """(x*y)*z - x*(y*z), formed as two separate elements."""
    return product(prod, product(prod, x, y), z) - product(prod, x, product(prod, y, z))


def check_left_mult(prod: ProductSpec, z: Element | BasisSymbol, bound2: int) -> Report:
    """Check that left multiplication by z is a 1/2-derivation."""
    if isinstance(z, BasisSymbol):
        phi = functools.partial(product_symbols, prod, z)
    else:
        phi = functools.partial(bilinear, product_symbols, prod, z)
    return window_check(
        "left-multiplication",
        combinations(prod.algebra.basis_symbols(bound2), 2),
        lambda x, y: derivation_residual(prod.algebra, phi, x, y, F(1, 2)),
        "left multiplication is not a 1/2-derivation",
    )


def axiom_oracle(spec, bound2):
    """Skew, grading and Jacobi on the window |doubled index| <= bound2.

    Returns {check: (tuples checked, [(witness, residual Element), ...])},
    in the order the package's checks visit their tuples.  Pass a fresh
    spec: its `Fraction` bracket memo then owes nothing to the `int` one.
    """
    symbols = list(spec.basis_symbols(bound2))
    skew = [((x, y), bracket(spec, x, y) + bracket(spec, y, x))
            for x, y in combinations_with_replacement(symbols, 2)]
    grading = []
    graded = [s for s in symbols if s.twice is not None]
    for x, y in combinations_with_replacement(graded, 2):
        want = spec.degree2(x) + spec.degree2(y)
        for sym, coeff in bracket(spec, x, y).items():
            if spec.degree2(sym) != want:
                grading.append(((x, y), Element({sym: coeff})))
    jacobi = []
    for x, y, z in combinations(symbols, 3):
        xy_z = bracket(spec, bracket(spec, x, y), z)
        yz_x = bracket(spec, bracket(spec, y, z), x)
        zx_y = bracket(spec, bracket(spec, z, x), y)
        jacobi.append(((x, y, z), xy_z + yz_x + zx_y))
    return {
        "skew": (len(skew), [(w, r) for w, r in skew if r]),
        "grading": (len(graded) * (len(graded) + 1) // 2, grading),
        "jacobi": (len(jacobi), [(w, r) for w, r in jacobi if r]),
    }
