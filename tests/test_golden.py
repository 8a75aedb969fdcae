"""Byte-exact CLI outputs recorded before the sparse-kernel refactor.

Each file under ``tests/golden/`` is the stdout of one quick command; the
solver, axiom checks, TPA checks and renderer must keep reproducing it
byte for byte.  Regenerate a file only for an intended output change.
"""
from pathlib import Path

import pytest

from lieverify import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("list.json", ["list"]),
    ("render_Ltilde4.liealg", ["render", "builtin:Ltilde4?lambda=1,mu=1/2"]),
    ("validate_so_hat.json", ["validate", "builtin:so_hat", "--neq", "4"]),
    (
        "solve_Ltilde1.json",
        ["solve-deriv", "builtin:Ltilde1?lambda=1,mu=1/4",
         "--degrees", "-1..1", "--neq", "5", "--ncore", "2"],
    ),
    (
        "solve_so_hat.json",
        ["solve-deriv", "builtin:so_hat", "--degrees", "-1..1", "--neq", "5", "--ncore", "2"],
    ),
    (
        "solve_Ltilde4.json",
        ["solve-deriv", "builtin:Ltilde4?lambda=1,mu=1/2",
         "--degrees", "-1/2..1/2", "--neq", "4", "--ncore", "1"],
    ),
    (
        "check_tpa_Ltilde1.json",
        ["check-tpa", "builtin:Ltilde1?lambda=1,mu=1/4", "--product", "builtin:theorem",
         "--alpha", "0:1", "--beta", "-1:2/3", "--neq", "3"],
    ),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(capsys, name, argv):
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
