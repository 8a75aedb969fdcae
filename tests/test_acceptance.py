"""Acceptance gate: one test per criterion, exact arithmetic, zero tolerances.

Each test emits a single pass/fail line under ``pytest -v``.  Criterion 6
asserts its stated expectation verbatim; the current catalog produces a
larger degree-0 space for three of the four algebras (see
tests/test_findings.py for the pinned actual behaviour and the README
section "Test suite and one known-red criterion" for the analysis), so that
test fails honestly.
"""
import random
from fractions import Fraction

import pytest

from lieverify import catalog
from lieverify.core import BasisSymbol, BracketRule, BracketTerm, Element, Window
from lieverify.core import check_grading, check_jacobi, check_skew
from lieverify.derivations import solve_derivations
from lieverify.linalg import sparse_nullspace
from lieverify.poly import Poly
from lieverify.tpa import (
    ProductSpec,
    check_tpa,
    theorem_product,
)

from _oracle import check_left_mult, dense_nullspace, oracle_interior_dim

F = Fraction
SEED = 20260826

# Doubled degrees {-2, -3/2, ..., 2}; half-integer entries are odd.
DEGREES2 = tuple(range(-4, 5))
WINDOW8 = Window.displayed(8, 3)
WINDOW10 = Window.displayed(10, 3)

# The solve-deriv configurations exercised by criteria 2-6, keyed for reuse
# in criteria 9 and 10.
DERIV_CONFIGS = {
    "so_hat": ("so_hat", {}),
    "hv": ("hv", {}),
    "Ltilde1(1,1/4)": ("Ltilde1", {"lambda": F(1), "mu": F(1, 4)}),
    "Ltilde1(1,2)": ("Ltilde1", {"lambda": F(1), "mu": F(2)}),
    "Ltilde1(2,1/4)": ("Ltilde1", {"lambda": F(2), "mu": F(1, 4)}),
    "Ltilde2(-3,1/2)": ("Ltilde2", {"lambda": F(-3), "mu": F(1, 2)}),
    "Ltilde3(-1,1/2)": ("Ltilde3", {"lambda": F(-1), "mu": F(1, 2)}),
    "Ltilde4(1,1/2)": ("Ltilde4", {"lambda": F(1), "mu": F(1, 2)}),
    "Ltilde5(-1,0)": ("Ltilde5", {"lambda": F(-1), "mu": F(0)}),
}

TRIVIAL = {g2: (1 if g2 == 0 else 0) for g2 in DEGREES2}

_dims_cache: dict = {}


def dims_at(key: str, window: Window) -> dict[int, int]:
    cache_key = (key, window.n_eq2, window.n_core2)
    if cache_key not in _dims_cache:
        name, params = DERIV_CONFIGS[key]
        spec = catalog.builtin(name, params)
        report = solve_derivations(spec, DEGREES2, window)
        assert all(d.residual_checked for d in report.degrees), key
        _dims_cache[cache_key] = (report.dims, report)
    return _dims_cache[cache_key][0]


def report_at(key: str, window: Window):
    dims_at(key, window)
    return _dims_cache[(key, window.n_eq2, window.n_core2)][1]


def test_criterion_01_lie_axiom_suite():
    window = Window.displayed(5, 0)
    for name, params in catalog.REPRESENTATIVES:
        spec = catalog.builtin(name, params)
        for check in (check_skew, check_grading, check_jacobi):
            report = check(spec, window)
            assert report.passed, (name, params, check.__name__, report.violations[:1])


def test_criterion_02_so_hat_triviality():
    assert dims_at("so_hat", WINDOW8) == TRIVIAL
    (gen,) = report_at("so_hat", WINDOW8).degrees[4].generators  # degree 0
    assert "identity" in gen.description


def test_criterion_03_hv_triviality():
    assert dims_at("hv", WINDOW8) == TRIVIAL


def test_criterion_04_ltilde1_lambda_one():
    expected = {-4: 1, -3: 1, -2: 1, -1: 1, 0: 2, 1: 1, 2: 1, 3: 1, 4: 1}
    for key in ("Ltilde1(1,1/4)", "Ltilde1(1,2)"):
        assert dims_at(key, WINDOW8) == expected, key
        report = report_at(key, WINDOW8)
        by_degree = {d.degree2: d for d in report.degrees}
        # degree 1: the single generator is L(n) -> M(n+1) up to scalar
        (gen1,) = by_degree[2].generators
        targets = {(s.family, t.family, t.twice - s.twice) for s, t in gen1.coefficients}
        assert targets == {("L", "M", 2)}, key
        values = set(gen1.coefficients.values())
        assert len(values) == 1, key
        # degree 1/2: L(n) -> Y(n+1/2) and Y(n+1/2) -> M(n+1), one scalar
        (gen_half,) = by_degree[1].generators
        targets = {
            (s.family, t.family, t.twice - s.twice) for s, t in gen_half.coefficients
        }
        assert targets == {("L", "Y", 1), ("Y", "M", 1)}, key
        assert len(set(gen_half.coefficients.values())) == 1, key


def test_criterion_05_ltilde1_lambda_other():
    assert dims_at("Ltilde1(2,1/4)", WINDOW8) == TRIVIAL


def test_criterion_06_extension_triviality():
    failures = []
    for key in ("Ltilde2(-3,1/2)", "Ltilde3(-1,1/2)", "Ltilde4(1,1/2)", "Ltilde5(-1,0)"):
        dims = dims_at(key, WINDOW8)
        if dims != TRIVIAL:
            failures.append((key, dims))
    assert not failures, (
        "expected a one-dimensional degree-0 space on each algebra; "
        f"got {failures}. The extra generators are genuine 1/2-derivations, "
        "center-valued or shift maps (residual-verified); see tests/test_findings.py "
        "and the README section \"Test suite and one known-red criterion\"."
    )


@pytest.fixture(scope="module")
def tpa_instances():
    rng = random.Random(SEED)
    spec = catalog.builtin("Ltilde1", {"lambda": F(1), "mu": F(1, 4)})
    instances = []
    for _ in range(25):
        alpha = {
            t: F(rng.randint(-9, 9), rng.randint(1, 9))
            for t in rng.sample(range(-2, 3), rng.randint(0, 3))
        }
        beta = {
            t: F(rng.randint(-9, 9), rng.randint(1, 9))
            for t in rng.sample(range(-2, 3), rng.randint(0, 3))
        }
        instances.append(theorem_product(spec, alpha, beta))
    return instances


def test_criterion_07_tpa_theorem(tpa_instances):
    for i, prod in enumerate(tpa_instances):
        for report in check_tpa(prod, 8):  # n_eq = 4
            assert report.passed, (i, report.check, report.violations[:1])

    so_hat = catalog.builtin("so_hat")
    control = ProductSpec(
        so_hat, (BracketRule("L", "L", (BracketTerm(Poly.const(1), "M"),)),)
    )
    compat = check_tpa(control, 8)[2]
    assert compat.check == "compatibility" and not compat.passed
    seen = 0
    for violation in compat.violations:
        x, y, z = violation.witness
        if {x.family, y.family, z.family} != {"L"}:
            continue
        seen += 1
        m, n, k = (s.twice // 2 for s in (x, y, z))
        expected = Element({BasisSymbol("M", 2 * (m + n + k)): F(n - m)})
        assert violation.residual == expected, violation
    assert seen > 0


def test_criterion_08_left_mult_closure(tpa_instances):
    spec = tpa_instances[0].algebra
    zs = [s for s in spec.basis_symbols(6)]  # |index| <= 3, centrals included
    for i, prod in enumerate(tpa_instances):
        for z in zs:
            report = check_left_mult(prod, z, 6)
            assert report.passed, (i, z, report.violations[:1])


def test_criterion_09_oracle_equivalence():
    rng = random.Random(SEED)
    for _ in range(20):
        n_cols = rng.randint(4, 12)
        n_rows = rng.randint(2, 10)
        rows = []
        for _ in range(n_rows):
            row = {
                c: F(rng.randint(-4, 4))
                for c in rng.sample(range(n_cols), rng.randint(1, n_cols))
            }
            rows.append({c: v for c, v in row.items() if v})
        sparse = sparse_nullspace(rows, n_cols)
        dense_rows = [[row.get(c, F(0)) for c in range(n_cols)] for row in rows]
        dense = dense_nullspace(dense_rows, n_cols)
        assert len(sparse) == len(dense)

    window5 = Window.displayed(5, 2)
    for key in DERIV_CONFIGS:
        name, params = DERIV_CONFIGS[key]
        spec = catalog.builtin(name, params)
        report = solve_derivations(spec, DEGREES2, window5)
        for result in report.degrees:
            oracle = oracle_interior_dim(spec, result.degree2, window5)
            assert result.interior_dim == oracle, (key, result.degree2)


def test_criterion_10_truncation_stability():
    for key in DERIV_CONFIGS:
        assert dims_at(key, WINDOW8) == dims_at(key, WINDOW10), key
