"""Byte-exact CLI outputs recorded before the sparse-kernel refactor.

Each output file under ``tests/golden/`` is the stdout of one quick
command, paired with its expected exit code; the solver, axiom checks,
TPA checks and renderer must keep reproducing it byte for byte.  The three
``broken_*.liealg`` files are inputs: an so_hat variant that breaks skew
symmetry, grading and Jacobi, a product file that breaks commutativity
and compatibility, and one that breaks associativity and compatibility,
so that violation lists (witnesses, residuals, messages and their order)
are pinned in JSON and text.
Regenerate a file only for an intended output change.
"""
from pathlib import Path

import pytest

from lieverify import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

BROKEN_ALGEBRA = str(GOLDEN / "broken_so_hat.liealg")
BROKEN_PRODUCT = ["check-tpa", "builtin:so_hat", "--product",
                  str(GOLDEN / "broken_product.liealg"), "--neq", "2"]
BROKEN_ASSOC = ["check-tpa", "builtin:so_hat", "--product",
                str(GOLDEN / "broken_assoc.liealg"), "--neq", "2"]

CASES = [
    ("list.json", ["list"], 0),
    ("render_Ltilde4.liealg", ["render", "builtin:Ltilde4?lambda=1,mu=1/2"], 0),
    ("validate_so_hat.json", ["validate", "builtin:so_hat", "--neq", "4"], 0),
    (
        "solve_Ltilde1.json",
        ["solve-deriv", "builtin:Ltilde1?lambda=1,mu=1/4",
         "--degrees", "-1..1", "--neq", "5", "--ncore", "2"],
        0,
    ),
    (
        "solve_so_hat.json",
        ["solve-deriv", "builtin:so_hat", "--degrees", "-1..1", "--neq", "5", "--ncore", "2"],
        0,
    ),
    (
        "solve_Ltilde1_delta1.json",
        ["solve-deriv", "builtin:Ltilde1?lambda=1,mu=1/4",
         "--degrees", "-1..1", "--neq", "4", "--ncore", "1", "--delta", "1"],
        0,
    ),
    (
        "solve_Ltilde4.json",
        ["solve-deriv", "builtin:Ltilde4?lambda=1,mu=1/2",
         "--degrees", "-1/2..1/2", "--neq", "4", "--ncore", "1"],
        0,
    ),
    (
        "check_tpa_Ltilde1.json",
        ["check-tpa", "builtin:Ltilde1?lambda=1,mu=1/4", "--product", "builtin:theorem",
         "--alpha", "0:1", "--beta", "-1:2/3", "--neq", "3"],
        0,
    ),
    ("validate_broken_so_hat.json", ["validate", BROKEN_ALGEBRA, "--neq", "2"], 1),
    (
        "validate_broken_so_hat.txt",
        ["validate", BROKEN_ALGEBRA, "--neq", "2", "--format", "text"],
        1,
    ),
    ("check_tpa_broken_product.json", BROKEN_PRODUCT, 1),
    ("check_tpa_broken_product.txt", BROKEN_PRODUCT + ["--format", "text"], 1),
    ("check_tpa_broken_assoc.json", BROKEN_ASSOC, 1),
    ("check_tpa_broken_assoc.txt", BROKEN_ASSOC + ["--format", "text"], 1),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[name for name, _, _ in CASES])
def test_output_matches_golden(capsys, name, argv, code):
    assert cli.run(argv) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
