"""The four benchmark workloads: the CLI operation each one issues, the
inputs it builds at set-up, and the checks every operation's output must
pass.

One operation is one in-process ``lieverify.cli.run([...])`` call that
writes its JSON report to a file, exactly like one CLI invocation: the
algebra is rebuilt from its source each time, so every operation starts
with a cold bracket memo.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

SO_HAT = "builtin:so_hat"
LTILDE1 = "builtin:Ltilde1?lambda=1,mu=1/4"
LTILDE1_EXPECT = "-2=1,-3/2=1,-1=1,-1/2=1,0=2,1/2=1,1=1,3/2=1,2=1"
SOLVE_ARGS = ["--degrees", "-2..2", "--neq", "8", "--ncore", "3"]
DEGREES = ["-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2"]


@dataclass(frozen=True)
class Expect:
    """What a correct report of one workload looks like.

    The CLI must exit with 0.  ``sha256`` is the digest of the default JSON
    report at the commit the benchmark was defined on (None where the
    inputs vary with the seed).  ``checks`` maps each check name to its
    tuple count.
    """

    sha256: Optional[str] = None
    dims: Optional[dict[str, int]] = None
    expect_ok: Optional[bool] = None
    checks: Optional[dict[str, int]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[["Inputs"], list[str]]
    expect: Expect
    render_input: bool = False  # write the so_hat .liealg file at set-up
    seeded: bool = False  # draws --alpha/--beta from the seed


@dataclass
class Inputs:
    liealg: Optional[Path] = None
    alpha: list[str] = field(default_factory=list)
    beta: list[str] = field(default_factory=list)


def _small_rational(rng: random.Random) -> str:
    num = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    return str(Fraction(num, rng.randint(1, 4)))


def draw_tpa_support(seed: int) -> tuple[list[str], list[str]]:
    """Two ``offset:value`` entries each for --alpha and --beta.

    Offsets are distinct within each list and lie in -3..3; values are
    small nonzero rationals.  The same seed gives the same draw.
    """
    rng = random.Random(seed)

    def support() -> list[str]:
        return [f"{t}:{_small_rational(rng)}" for t in sorted(rng.sample(range(-3, 4), 2))]

    return support(), support()


def _flags(name: str, entries: list[str]) -> list[str]:
    return [arg for entry in entries for arg in (name, entry)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "solve-so_hat",
            "half-derivation solve of so_hat: system assembly and sparse elimination take most "
            "of the time (39 178 rows, 2 632 columns)",
            lambda inp: ["solve-deriv", SO_HAT, *SOLVE_ARGS],
            Expect(
                sha256="ec846e9b1d6a4c94738be0436b33c868e8b4e1ff60f44007ba548ba268274572",
                dims={d: int(d == "0") for d in DEGREES},
            ),
        ),
        Workload(
            "solve-Ltilde1",
            "README half-derivation solve of Ltilde1(1,1/4): 84 kernel vectors make the "
            "residual re-check a leading layer beside elimination and assembly",
            lambda inp: ["solve-deriv", LTILDE1, *SOLVE_ARGS, "--expect", LTILDE1_EXPECT],
            Expect(
                sha256="c9b0f9bfd18bf5a9f0e7e2510eac67bc2ece396e8ca500a5138e0a5a89fea4cb",
                dims={d: 2 if d == "0" else 1 for d in DEGREES},
                expect_ok=True,
            ),
        ),
        Workload(
            "validate-so_hat",
            "Lie-axiom checks of so_hat loaded from a .liealg file: Jacobi over 24 804 triples "
            "dominates; the solver layers are bypassed",
            lambda inp: ["validate", str(inp.liealg), "--neq", "6"],
            Expect(
                sha256="78cc2d2b3f2b54ae1e4be2c4fe6cec2983b007b3cf55e15aae4ec90e18b45aa8",
                checks={"skew": 1485, "grading": 1326, "jacobi": 24804},
            ),
            render_input=True,
        ),
        Workload(
            "tpa-Ltilde1",
            "README transposed-Poisson check of Ltilde1(1,1/4) with alpha/beta drawn from the "
            "seed: compatibility dominates; the solver layers are bypassed",
            lambda inp: [
                "check-tpa", LTILDE1, "--product", "builtin:theorem",
                *_flags("--alpha", inp.alpha), *_flags("--beta", inp.beta),
            ],
            Expect(checks={"commutativity": 378, "associativity": 3654, "compatibility": 9477}),
            seeded=True,
        ),
    )
}


def check_output(expect: Expect, exit_code: int, payload: bytes) -> list[str]:
    """Every way the report differs from ``expect``; empty when correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if expect.sha256 is not None:
        digest = hashlib.sha256(payload).hexdigest()
        if digest != expect.sha256:
            problems.append(f"sha256 {digest}, expected {expect.sha256}")
    try:
        report = json.loads(payload)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if expect.dims is not None:
        if report.get("dims") != expect.dims:
            problems.append(f"dims {report.get('dims')}, expected {expect.dims}")
        unchecked = [d["degree"] for d in report.get("degrees", []) if not d["residual_checked"]]
        if unchecked:
            problems.append(f"residual not checked at degrees {unchecked}")
    if expect.expect_ok is not None and report.get("expect_ok") != expect.expect_ok:
        problems.append(f"expect_ok {report.get('expect_ok')}, expected {expect.expect_ok}")
    if expect.checks is not None:
        if report.get("ok") is not True:
            problems.append(f"ok {report.get('ok')}, expected true")
        counts = {c["check"]: c["pairs_checked"] for c in report.get("checks", [])}
        if counts != expect.checks:
            problems.append(f"tuples checked {counts}, expected {expect.checks}")
    return problems
