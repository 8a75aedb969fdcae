"""Independent cross-check helpers shared by the solver, TPA and acceptance tests.

`dense_nullspace` is a textbook fraction-free Gauss-Jordan on a dense
integer matrix, kept deliberately separate from the package's sparse
elimination.  The interior-dimension computation is reimplemented on top
of it so it shares no sparse bookkeeping with the production path.
`rule_table` is the oracle's own rule evaluator: `Poly.evaluate` on the
rules as written where `fires` says their delta holds, over `Fraction`, with
a memo of its own.  It shares no
memo, no scale and no `eval_rule` with the package, whose checks run in
`int` on rules multiplied by a scale.  `oracle_bracket` and `oracle_product`
are its two tables.
`compatibility_oracle` writes the transposed-Poisson law out term by term,
beside the package's route through the 1/2-derivation residual;
`derivation_oracle` writes the delta-derivation residual out on oracle brackets,
beside the solver's re-check and `derivation_residual`, which run on the
package's composed-term kernel; and
`associativity_oracle` forms (x*y)*z - x*(y*z) from product elements,
beside the package's dict residual.
`check_left_mult` checks that left multiplication by one fixed z is a
1/2-derivation, the identity the package checks for every z at once as the
compatibility law; it writes the residual out as `Element`s on the oracle's
tables.
`residual_rows` rebuilds the solver's linear system one column at a time
from `derivation_residual` of a unit map, beside `assemble_system`, which
accumulates whole rows at once.
`full_system_route` solves one degree from the whole window system at once
and reduces the kernel's core projection with a second RREF (`interior_basis`,
on the core columns in basis order), beside `solve_degree`, which assembles
the core window's pairs first and reads the interior basis off the kernel.
`dense_rref` reduces a dense matrix by plain Gauss-Jordan, for projections.
`structurally_equal` compares two algebras by their canonical .liealg text.
`reference_plans` is `core.composed_plans` by enumeration: every family triple
against every placement, beside the package's walk of the rule graph.
`modular_rref` is the whole RREF mod PRIME: `_eliminate` over `_GF`, then
its deferred rows, as `sparse_nullspace` completes it when it retries.
`axiom_oracle` writes skew-symmetry, grading and the Jacobi identity out as
`Element` sums of oracle brackets over `Fraction`, beside the package's
checks, which run in `int` on the scaled bracket memo.  `tpa_oracle` does the
same for commutativity, associativity and compatibility.  Both evaluate every
window tuple, where the package forms only those whose families can give a
nonzero term.
"""
import functools
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd
from typing import Sequence

from lieverify.core import CENTRAL, BasisSymbol, Element, Report, bracket, live_check
from lieverify.dsl import render_algebra
from lieverify.derivations import (
    _is_core,
    assemble_system,
    build_unknowns,
    derivation_residual,
    window_frame,
)
from lieverify.linalg import _GF, _eliminate, rref, sparse_nullspace
from lieverify.tpa import ProductSpec

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


def dense_rref(rows):
    """The nonzero rows of the reduced row echelon form over the rationals, by plain
    Gauss-Jordan elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [F(v) / lead for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rows[:rank]


def structurally_equal(a, b):
    """Equality up to canonical form (ignores the params metadata)."""
    return render_algebra(a) == render_algebra(b)


def _targets(owner):
    """family -> partner -> the target families of their rule, read off `owner._pair`."""
    table = {}
    for left, right, terms in owner._pair.values():
        table.setdefault(left, {})[right] = table.setdefault(right, {})[left] = {
            target for _, _, target, _ in terms}
    return table


def reference_plans(placements):
    """family triple f -> the placements, in their order, for which some target family g
    of the outer rule for (f[i], f[j]) has an inner rule with f[k] that has a term: every
    triple of families tested against every placement, O(F^3) for F families."""
    tables = {id(op[2]): _targets(op[2]) for p in placements for op in p[4:6]}
    families = dict.fromkeys(f for table in tables.values() for f in table)
    plans = {}
    for f in product(families, repeat=3):
        kept = tuple(p for p in placements if any(
            tables[id(p[5][2])].get(g, {}).get(f[p[2]])
            for g in tables[id(p[4][2])].get(f[p[0]], {}).get(f[p[1]], ())))
        if kept:
            plans[f] = kept
    return plans


def modular_rref(rows):
    """RREF mod PRIME of sparse rows, as pivot column -> row with entries in [1, PRIME)."""
    pivots, deferred = _eliminate(list(rows), _GF)
    for row in deferred:
        pivots.reduce(_GF.entries(row))
    return pivots


def dense_rank(rows):
    """Row rank over the rationals."""
    return len(dense_rref(rows))


def oracle_interior_dim(spec, g2, window, delta=F(1, 2)):
    """Interior dimension via the dense nullspace oracle."""
    unknowns, rows = assemble_system(spec, g2, window, delta)
    n = len(unknowns)
    dense = [[row.get(c, 0) for c in range(n)] for row in rows]
    vectors = dense_nullspace(dense, n)
    core_cols = [i for i, u in enumerate(unknowns) if _is_core(u, window.n_core2)]
    projections = [[v[c] for c in core_cols] for v in vectors]
    return dense_rank(projections)


def core_in_basis_order(spec, window, unknowns):
    """The columns of the core unknowns (`_is_core`) in basis order: sources in
    `frame.sources` order, targets in family order."""
    source = {s: i for i, s in enumerate(window_frame(spec, window).sources)}
    family = {name: i for i, name in enumerate(spec.family_map)}
    core = [c for c, u in enumerate(unknowns) if _is_core(u, window.n_core2)]
    return sorted(core, key=lambda c: (source[unknowns[c][0]], family[unknowns[c][1].family]))


def interior_basis(vectors, core_cols):
    """The reference projection route: kernel combinations whose projections onto
    `core_cols`, in that order, are in reduced form.

    Each row holds the projection onto the core columns (columns 0..k-1)
    followed by the full vector shifted by k, so one RREF reduces the
    projections and carries the same row operations onto the full vectors:
    every returned vector is still an exact solution of the full system.
    """
    k = len(core_cols)
    index = {c: i for i, c in enumerate(core_cols)}
    rows = []
    for vec in vectors:
        row = {index[c]: v for c, v in vec.items() if c in index}
        row.update((c + k, v) for c, v in vec.items())
        rows.append(row)
    pivots = rref(rows)
    return [
        {c - k: v for c, v in pivots[p].items() if c >= k} for p in sorted(pivots) if p < k
    ]


def full_system_route(spec, g2, window, delta=F(1, 2)):
    """The interior generators' coefficients from the full system: `assemble_system`
    on every window pair, `sparse_nullspace`, then `interior_basis` on the core
    columns in basis order."""
    unknowns, rows = assemble_system(spec, g2, window, delta)
    core = core_in_basis_order(spec, window, unknowns)
    basis = interior_basis(sparse_nullspace(rows, len(unknowns)), core)
    return [{unknowns[c]: vec[c] for c in core if c in vec} for vec in basis]


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


def fires(delta, m, n):
    """Whether the `DeltaCondition` m + n + shift = 0 holds at the rule variables m, n;
    a non-integral shift never does."""
    return m + n + delta.shift == 0


@functools.lru_cache(maxsize=32)  # equal specs and rules give equal tables
def rule_table(spec, rules, antisymmetric, canonical=False):
    """(x, y) -> the value of `rules` at x, y (basis symbols or Elements) as an Element.

    The reversed orientation of a rule swaps m and n, and flips the sign
    only when `antisymmetric` (brackets).  With `canonical`, basis pairs
    are read in (family, index) order, as a product is defined: a rule that
    is not symmetric in m and n still gives x*y = y*x.
    """
    memo = {}

    def basis(x, y):
        if canonical and (y.family, y.twice or 0) < (x.family, x.twice or 0):
            x, y = y, x
        if (x, y) not in memo:
            out = memo[x, y] = {}
            for rule in rules:
                if (rule.left, rule.right) == (x.family, y.family):
                    sign, a, b = 1, x, y
                elif (rule.left, rule.right) == (y.family, x.family):
                    sign, a, b = (-1 if antisymmetric else 1), y, x
                else:
                    continue
                m, n = a.twice // 2, b.twice // 2
                for t in rule.terms:
                    if t.delta is None or fires(t.delta, m, n):
                        fam = spec.family(t.target)
                        twice = 2 * (m + n + t.offset) + fam.parity
                        sym = BasisSymbol(t.target, None if fam.lattice == CENTRAL else twice)
                        out[sym] = out.get(sym, 0) + sign * t.coeff.evaluate(m, n)
        return memo[x, y]

    def value(x, y):
        xs = x.terms if isinstance(x, Element) else {x: 1}
        ys = y.terms if isinstance(y, Element) else {y: 1}
        total = {}
        for sx, cx in xs.items():
            for sy, cy in ys.items():
                for sym, coeff in basis(sx, sy).items():
                    total[sym] = total.get(sym, 0) + cx * cy * coeff
        return Element(total)

    return value


def oracle_bracket(spec):
    return rule_table(spec, spec.rules, antisymmetric=True)


def oracle_product(prod):
    return rule_table(prod.algebra, prod.rules, antisymmetric=False, canonical=True)


def compatibility_oracle(prod, x, y, z):
    """2*z*[x,y] - [z*x,y] - [x,z*y], formed as three separate elements."""
    br, mul = oracle_bracket(prod.algebra), oracle_product(prod)
    return mul(z, br(x, y)).scale(2) - br(mul(z, x), y) - br(x, mul(z, y))


def derivation_oracle(spec, phi, x, y, delta):
    """phi([x,y]) - delta*([phi(x),y] + [x,phi(y)]) over `Fraction` on oracle brackets,
    phi given as source -> {target: coefficient} on basis symbols (absent: 0), extended
    linearly."""
    br = oracle_bracket(spec)
    image = lambda e: sum((Element(phi.get(s, {})).scale(c) for s, c in e.items()), Element())
    return image(br(x, y)) - (br(image(Element.basis(x)), y)
                              + br(x, image(Element.basis(y)))).scale(delta)


def commutativity_oracle(prod, x, y):
    """x*y - y*x with each product read from the rules in the order given, not the
    canonical order the package's product and `oracle_product` use."""
    mul = rule_table(prod.algebra, prod.rules, antisymmetric=False)
    return mul(x, y) - mul(y, x)


def associativity_oracle(prod, x, y, z):
    """(x*y)*z - x*(y*z), formed as two separate elements."""
    mul = oracle_product(prod)
    return mul(mul(x, y), z) - mul(x, mul(y, z))


def check_left_mult(prod: ProductSpec, z: Element | BasisSymbol, bound2: int) -> Report:
    """Check that left multiplication by z is a 1/2-derivation."""
    br, mul = oracle_bracket(prod.algebra), oracle_product(prod)
    phi = lambda s: mul(z, s)
    residual = lambda x, y: phi(br(x, y)) - (br(phi(x), y) + br(x, phi(y))).scale(F(1, 2))
    symbols = list(prod.algebra.basis_symbols(bound2))
    return live_check(
        "left-multiplication", comb(len(symbols), 2),
        ((t, residual(*t)) for t in combinations(symbols, 2)),
        "left multiplication is not a 1/2-derivation",
    )


def axiom_oracle(spec, bound2):
    """Skew, grading and Jacobi on the window |doubled index| <= bound2.

    Returns {check: (tuples checked, [(witness, residual Element), ...])},
    in the order the package's checks visit their tuples.
    """
    br = oracle_bracket(spec)
    symbols = list(spec.basis_symbols(bound2))
    skew = [((x, y), br(x, y) + br(y, x))
            for x, y in combinations_with_replacement(symbols, 2)]
    grading = []
    graded = [s for s in symbols if s.twice is not None]
    for x, y in combinations_with_replacement(graded, 2):
        want = spec.degree2(x) + spec.degree2(y)
        for sym, coeff in br(x, y).items():
            if spec.degree2(sym) != want:
                grading.append(((x, y), Element({sym: coeff})))
    jacobi = []
    for x, y, z in combinations(symbols, 3):
        xy_z = br(br(x, y), z)
        yz_x = br(br(y, z), x)
        zx_y = br(br(z, x), y)
        jacobi.append(((x, y, z), xy_z + yz_x + zx_y))
    return {
        "skew": (len(skew), [(w, r) for w, r in skew if r]),
        "grading": (len(graded) * (len(graded) + 1) // 2, grading),
        "jacobi": (len(jacobi), [(w, r) for w, r in jacobi if r]),
    }


def tpa_oracle(prod, bound2):
    """Commutativity, associativity and compatibility on the window |doubled index| <= bound2,
    as `axiom_oracle` returns the axioms."""
    symbols = list(prod.algebra.basis_symbols(bound2))
    tuples = {
        "commutativity": (commutativity_oracle, combinations_with_replacement(symbols, 2)),
        "associativity": (associativity_oracle, combinations_with_replacement(symbols, 3)),
        "compatibility": (compatibility_oracle,
                          [(x, y, z) for x, y in combinations(symbols, 2) for z in symbols]),
    }
    out = {}
    for check, (oracle, window) in tuples.items():
        window = list(window)
        found = [(t, r) for t in window if (r := oracle(prod, *t))]
        out[check] = (len(window), found)
    return out
