"""Every window dimension the solver reports, cross-checked with sympy.

For a system of n unknowns, `sparse_nullspace` returns k vectors.  Each one is
dotted with every row here, exactly, so each is in the kernel; sympy's rank of
the k vectors over QQ is k, so they are independent and rank over QQ <= n - k.
The rows hold integers, so their rank modulo any prime is at most their rank
over QQ; sympy's rank modulo 10**9 + 7, a prime the package does not use,
must be n - k.  Then the kernel has dimension exactly k, by a route that
shares no code with `linalg._eliminate`.  The interior generators are sympy's
RREF over QQ of the vectors' projection onto the core columns, in basis column
order, and their number is the interior dimension.  That dimension must equal
the one the solver finds for each of criterion 6's four algebras at window
(8, 3).  The generators must equal, coefficient for coefficient and in order,
those each solve golden records at every degree, and those
`solve_derivations` reports on the two benchmark solves; the solver may
settle a degree from the core window's pairs alone and reads its generators
straight off the kernel, while here they always come from the full system.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from lieverify import catalog  # noqa: E402
from lieverify.core import Window  # noqa: E402
from lieverify.derivations import Generator, assemble_system, solve_derivations  # noqa: E402
from lieverify.linalg import sparse_nullspace  # noqa: E402
from _oracle import core_in_basis_order  # noqa: E402
from test_acceptance import DEGREES2, DERIV_CONFIGS, WINDOW8, dims_at  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
SOLVE_GOLDENS = sorted(path.name for path in GOLDEN.glob("solve_*.json"))
CRITERION_6 = ("Ltilde2(-3,1/2)", "Ltilde3(-1,1/2)", "Ltilde4(1,1/2)", "Ltilde5(-1,0)")
BENCHMARK_SOLVES = {"so_hat": {}, "Ltilde1": {"lambda": Fraction(1), "mu": Fraction(1, 4)}}
GF = sympy.GF(10**9 + 7)
QQ = sympy.QQ


def _matrix(rows, ncols, domain, entry):
    """sympy's sparse matrix over `domain` of the rows (column -> value), entries by `entry`."""
    matrix = {}
    for i, row in enumerate(rows):
        if found := {c: e for c, v in row.items() if (e := entry(v))}:
            matrix[i] = found
    return DomainMatrix(matrix, (len(rows), ncols), domain)


def _rank(rows, ncols, domain, entry):
    return _matrix(rows, ncols, domain, entry).rank()


def _rational(v):
    v = Fraction(v)
    return QQ(v.numerator, v.denominator)


def _interior(spec, g2, window, delta):
    """The kernel dimension proved as above, then the interior generators by sympy:
    one {unknown: Fraction} per row of the core projection's RREF."""
    unknowns, rows = assemble_system(spec, g2, window, delta)
    n = len(unknowns)
    vectors = sparse_nullspace(rows, n)
    for vector in vectors:
        for row in rows:
            assert sum(value * vector.get(c, 0) for c, value in row.items()) == 0
    assert all(type(value) is int for row in rows for value in row.values())
    assert _rank(vectors, n, QQ, _rational) == len(vectors)
    assert _rank(rows, n, GF, GF) == n - len(vectors), (spec.name, g2)
    core = core_in_basis_order(spec, window, unknowns)
    index = {c: i for i, c in enumerate(core)}
    projections = [{index[c]: v for c, v in vector.items() if c in index} for vector in vectors]
    reduced = _matrix(projections, len(core), QQ, _rational).rref()[0].to_sdm()
    return [{unknowns[core[j]]: Fraction(int(v.numerator), int(v.denominator))
             for j, v in reduced[i].items()} for i in sorted(reduced)]


@pytest.mark.parametrize("name", SOLVE_GOLDENS)
def test_solve_golden_dimensions_match_sympy(name):
    """Each degree's dimension and generators, as the golden records them."""
    golden = json.loads((GOLDEN / name).read_text())
    params = {k: Fraction(v) for k, v in golden["params"].items()}
    spec = catalog.builtin(golden["algebra"], params)
    window = Window.displayed(int(golden["window"]["neq"]), int(golden["window"]["ncore"]))
    delta = Fraction(golden["delta"])
    assert golden["dims"]
    for degree in golden["degrees"]:
        generators = _interior(spec, int(2 * Fraction(degree["degree"])), window, delta)
        assert len(generators) == golden["dims"][degree["degree"]]
        assert [Generator("", g).as_dict()["coefficients"] for g in generators] == [
            g["coefficients"] for g in degree["generators"]], degree["degree"]


@pytest.mark.parametrize("key", CRITERION_6)
def test_criterion_6_dimensions_match_sympy(key):
    """The solver's dimensions on which criterion 6 fails are the true window ones."""
    spec = catalog.builtin(*DERIV_CONFIGS[key])
    dims = {g2: len(_interior(spec, g2, WINDOW8, Fraction(1, 2))) for g2 in DEGREES2}
    assert dims == dims_at(key, WINDOW8)


@pytest.mark.parametrize("name", BENCHMARK_SOLVES)
def test_benchmark_solve_dimensions_match_sympy(name):
    """so_hat and Ltilde1(1,1/4) at window (8, 3), delta 1/2, degrees -2..2."""
    spec = catalog.builtin(name, BENCHMARK_SOLVES[name])
    half = Fraction(1, 2)
    report = solve_derivations(spec, DEGREES2, WINDOW8, half)
    assert [d.degree2 for d in report.degrees] == list(DEGREES2)
    for result in report.degrees:
        want = _interior(spec, result.degree2, WINDOW8, half)
        assert [g.coefficients for g in result.generators] == want, result.degree2
