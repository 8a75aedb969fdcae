"""End-to-end CLI behaviour: exit codes, output formats, determinism."""
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lieverify import cli, linalg
from lieverify.dsl import render_algebra
from lieverify.catalog import builtin

WITT_CANONICAL = (
    "algebra witt\n"
    "family L integer degree-offset 0\n"
    "bracket L(m) L(n) = (n-m)*L(m+n)\n"
)

BAD_JACOBI = (
    "algebra bad\n"
    "family L integer degree-offset 0\n"
    "family M integer degree-offset 0\n"
    "bracket L(m) L(n) = (n-m)*L(m+n)\n"
    "bracket L(m) M(n) = (2*n)*M(m+n)\n"
)


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_text(self, capsys):
        code, out, _ = run(capsys, ["list", "--format", "text"])
        assert code == 0
        assert "witt\n" in out and "Ltilde4 (parameters: lambda, mu)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["list"])
        data = json.loads(out)
        assert code == 0
        entries = {e["name"]: e for e in data["algebras"]}
        assert entries["virasoro"]["parameters"] == []
        assert entries["L"]["parameters"] == ["lambda", "mu"]

    def test_python_m_runs_from_a_checkout(self):
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-m", "lieverify", "list", "--format", "text"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert "witt\n" in done.stdout


class TestValidate:
    def test_builtin_ok(self, capsys):
        code, out, _ = run(capsys, ["validate", "builtin:witt", "--neq", "6"])
        assert code == 0
        data = json.loads(out)
        assert all(r["passed"] for r in data["checks"])

    def test_builtin_with_params(self, capsys):
        code, _, _ = run(
            capsys, ["validate", "builtin:Ltilde3?lambda=-1,mu=1/2", "--neq", "4"]
        )
        assert code == 0

    def test_file_violation_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.liealg"
        path.write_text(BAD_JACOBI)
        code, out, _ = run(capsys, ["validate", str(path), "--format", "text"])
        assert code == 1
        assert "jacobi" in out and "L(" in out  # named witness triple

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.liealg"
        path.write_text("algebra x\nfamly L integer\n")
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "line 2" in err

    def test_huge_exponent_exit_2(self, capsys, tmp_path):
        path = tmp_path / "power.liealg"
        path.write_text(
            "algebra p\nfamily L integer degree-offset 0\n"
            "bracket L(m) L(n) = (m+n)^1000000000*L(m+n)\n"
        )
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "line 3, col 27: exponent" in err

    @pytest.mark.parametrize(
        "rhs, message",
        [
            ("(((m+n+1)^16)^16)^16*L(m+n)", "line 3, col 35: power of degree"),
            ("((((2^16)^16)^16)^16)^16*L(m+n)", "line 3, col 35: power of about"),
            ("7" * 5000 + "*L(m+n)", "line 3, col 21: integer literal"),
            ("(" * 400 + "m" + ")" * 400 + "*L(m+n)", "line 3, col 121: parentheses and signs"),
            ("(" + "-" * 3000 + "m)*L(m+n)", "line 3, col 121: parentheses and signs"),
            ("\u00b2*L(m+n)", "line 3, col 21: unknown parameter"),
        ],
        ids=["nested-power", "nested-constant-power", "long-literal",
             "deep-parentheses", "deep-signs", "superscript-digit"],
    )
    def test_oversized_polynomial_exit_2(self, capsys, tmp_path, rhs, message):
        path = tmp_path / "big.liealg"
        path.write_text(
            f"algebra p\nfamily L integer degree-offset 0\nbracket L(m) L(n) = {rhs}\n"
        )
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert message in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.liealg"
        path.write_bytes(b"algebra a\n# \xff\nfamily L integer degree-offset 0\n")
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "is not UTF-8 text" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, ["validate", "/nonexistent/x.liealg"])
        assert code == 2

    def test_unknown_builtin_parameter_exit_2(self, capsys):
        src = "builtin:Ltilde1?lambda=1,mu=1/4,nu=3"
        code, out, err = run(capsys, ["validate", src, "--neq", "1"])
        assert (code, out) == (2, "")
        assert "Ltilde1 takes only parameters lambda and mu, not 'nu'" in err

    def test_case_guard_exit_3(self, capsys):
        # lambda=1, mu=1/4 belongs to the generic case, not the lambda=-3 one
        code, _, err = run(capsys, ["validate", "builtin:Ltilde2?lambda=1,mu=1/4"])
        assert code == 3
        assert "Ltilde2" in err

    def test_bad_usage_exit_2(self, capsys):
        code, _, _ = run(capsys, ["validate", "builtin:witt", "--neq", "pony"])
        assert code == 2
        # a non-integer dim is a usage error, not a traceback with exit 1
        code, _, err = run(capsys, [
            "solve-deriv", "builtin:witt", "--degrees", "0", "--neq", "4", "--ncore", "1",
            "--expect", "0=x",
        ])
        assert code == 2
        assert "--expect dim must be an integer, got 'x'" in err

    @pytest.mark.parametrize("src, args", [
        ("builtin:Ltilde1?lambda=1,mu=1/4", ["--param", "lambda=2"]),
        ("builtin:Ltilde1?lambda=1,mu=1/4,lambda=3", []),
        ("builtin:Ltilde1", ["--param", "lambda=1,mu=1/4", "--param", "lambda=1"]),
    ])
    def test_repeated_parameter_exit_2(self, capsys, src, args):
        code, out, err = run(capsys, ["validate", src] + args)
        assert (code, out) == (2, "")
        assert "parameter 'lambda' is given twice" in err


class TestSolveDeriv:
    ARGS = [
        "solve-deriv", "builtin:so_hat",
        "--degrees", "-1..1", "--step", "integer",
        "--neq", "4", "--ncore", "1",
    ]

    def test_expect_ok(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--expect", "-1=0,0=1,1=0"])
        assert code == 0
        data = json.loads(out)
        assert data["dims"] == {"-1": 0, "0": 1, "1": 0}
        assert data["expect_ok"] is True
        assert all(d["residual_checked"] for d in data["degrees"])

    def test_expect_mismatch_exit_1(self, capsys):
        code, _, err = run(capsys, self.ARGS + ["--expect", "0=2"])
        assert code == 1
        assert "0" in err

    @pytest.mark.parametrize("expect, message", [
        ("0=x", "--expect dim must be an integer, got 'x'"),
        ("0=1,0=2", "--expect names degree 0 twice"),
        ("5=1", "--expect degree 5 is not in --degrees"),
        ("-1/2=0", "--expect degree -1/2 is not in --degrees"),
        ("0=-1", "--expect dim must be nonnegative, got -1"),
    ])
    def test_bad_expect_exit_2_before_solve(self, capsys, monkeypatch, expect, message):
        def no_solve(*args):
            raise AssertionError("solved before --expect was checked")

        monkeypatch.setattr(cli, "solve_derivations", no_solve)
        code, _, err = run(capsys, self.ARGS + ["--expect", expect])
        assert code == 2
        assert message in err

    def test_half_degrees_and_delta(self, capsys):
        code, out, _ = run(capsys, [
            "solve-deriv", "builtin:Ltilde1?lambda=1,mu=1/4",
            "--degrees", "-1/2..1/2", "--neq", "4", "--ncore", "1",
            "--delta", "1/2",
        ])
        assert code == 0
        assert set(json.loads(out)["dims"]) == {"-1/2", "0", "1/2"}

    def test_negative_degree_value_parses(self, capsys):
        code, out, _ = run(capsys, [
            "solve-deriv", "builtin:witt",
            "--degrees", "-2,0,2", "--step", "integer",
            "--neq", "4", "--ncore", "1", "--delta", "1",
        ])
        assert code == 0
        # delta=1 picks up the adjoint maps of the Witt algebra
        assert json.loads(out)["dims"] == {"-2": 1, "0": 1, "2": 1}

    @staticmethod
    def _spoil_last_vector(monkeypatch):
        # doubling one entry of the identity map leaves a nonzero residual
        nullspace = linalg.sparse_nullspace

        def spoiled(rows, ncols):
            vectors = nullspace(rows, ncols)
            vectors[-1][min(vectors[-1])] *= 2
            return vectors

        monkeypatch.setattr(linalg, "sparse_nullspace", spoiled)

    def test_failed_recheck_exit_1(self, capsys, monkeypatch):
        self._spoil_last_vector(monkeypatch)
        code, out, err = run(capsys, [
            "solve-deriv", "builtin:so_hat", "--degrees", "0", "--neq", "4", "--ncore", "1",
        ])
        assert code == 1
        (degree,) = json.loads(out)["degrees"]
        assert degree["interior_dim"] == 1 and degree["residual_checked"] is False
        assert err == "degree 0: residual re-check failed\n"

    def test_failed_recheck_is_named_in_text_mode(self, capsys, monkeypatch):
        self._spoil_last_vector(monkeypatch)
        code, out, err = run(capsys, [
            "solve-deriv", "builtin:so_hat", "--degrees", "-1/2..0", "--neq", "4", "--ncore", "1",
            "--format", "text",
        ])
        assert code == 1
        assert "degree 0: dim 1" in out
        assert err == "degree 0: residual re-check failed\n"

    def test_decimal_exponent_accepted(self, capsys):
        code, out, _ = run(capsys, [
            "solve-deriv", "builtin:witt", "--degrees", "0", "--neq", "2", "--ncore", "1",
            "--delta", "5e-1",
        ])
        assert code == 0
        assert json.loads(out)["delta"] == "1/2"

    def test_window_invariant_exit_2(self, capsys):
        code, _, _ = run(capsys, [
            "solve-deriv", "builtin:witt",
            "--degrees", "0", "--step", "integer",
            "--neq", "4", "--ncore", "3",
        ])
        assert code == 2

    def test_window_error_names_displayed_bounds(self, capsys):
        code, out, err = run(capsys, [
            "solve-deriv", "builtin:witt", "--degrees", "0", "--neq", "3", "--ncore", "2",
        ])
        assert (code, out) == (2, "")
        assert err == "error: n_core 2 must not exceed n_eq/2 = 3/2\n"

    def test_huge_degree_solves_fast(self, capsys):
        # the unknowns follow the equations, so a degree's cost does not grow with it
        start = time.perf_counter()
        code, out, _ = run(capsys, [
            "solve-deriv", "builtin:witt", "--degrees", "1e900", "--neq", "2", "--ncore", "1",
        ])
        assert time.perf_counter() - start < 2
        assert code == 0
        (degree,) = json.loads(out)["degrees"]
        assert (degree["interior_dim"], degree["residual_checked"]) == (1, True)


_SOLVE_WITT = ["solve-deriv", "builtin:witt", "--degrees", "0", "--neq", "2", "--ncore", "1"]
_TPA_LT1 = ["check-tpa", "builtin:Ltilde1?lambda=1,mu=1/4", "--product", "builtin:theorem"]


@pytest.mark.parametrize("argv, message", [
    (_SOLVE_WITT + ["--delta", "1e200000"],
     "invalid --delta: a rational of about 200001 digits exceeds the maximum 1000"),
    (_SOLVE_WITT + ["--delta", "1e3000000"], "about 3000001 digits"),
    (_SOLVE_WITT + ["--delta", "1e20000"], "about 20001 digits"),
    (_SOLVE_WITT + ["--delta", "-3e-99999"], "about 100000 digits"),
    (_SOLVE_WITT + ["--delta", "1e" + "9" * 5000], "about 5001 digits"),
    (_SOLVE_WITT + ["--delta", "1" * 1001], "about 1001 digits"),
    (_SOLVE_WITT + ["--degrees", "0..1e2000"], "invalid degree: a rational of about 2001 digits"),
    (_SOLVE_WITT + ["--degrees", "0,1E5000"], "invalid degree: a rational of about 5001 digits"),
    (_SOLVE_WITT + ["--expect", "1e5000=1"], "invalid degree: a rational of about 5001 digits"),
    (_SOLVE_WITT + ["--degrees", ","], "empty degree list ','"),
    (_SOLVE_WITT + ["--degrees", "0..1e900"],
     "--degrees '0..1e900' asks for about 10^900 degrees; the maximum is 1000"),
    (_SOLVE_WITT + ["--degrees", "-1e6..1e6"],
     "--degrees '-1e6..1e6' asks for 4000001 degrees; the maximum is 1000"),
    (["validate", "builtin:Ltilde1?lambda=1e2000000,mu=1/4"],
     "invalid parameter 'lambda': a rational of about 2000001 digits"),
    (["validate", "builtin:Ltilde1", "--param", "lambda=1e20000", "--param", "mu=1/4"],
     "invalid parameter 'lambda': a rational of about 20001 digits"),
    (_TPA_LT1 + ["--alpha", "0:1e5000"], "invalid --alpha value: a rational of about 5001 digits"),
    (_TPA_LT1 + ["--beta", "1:-1.5e-5000"], "invalid --beta value: a rational of about 5002 digits"),
])
def test_huge_or_empty_values_exit_2_fast(capsys, argv, message):
    # the size is read off the text before Fraction() can expand the exponent
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["validate", "builtin:witt"],
    _SOLVE_WITT,
    _TPA_LT1 + ["--alpha", "0:1"],
], ids=["validate", "solve-deriv", "check-tpa"])
@pytest.mark.parametrize("neq, shown", [
    (cli.MAX_NEQ + 1, repr(str(cli.MAX_NEQ + 1))),
    (100000, "'100000'"),
    (10**3999, "'" + "1" + "0" * 39 + "'… (4000 characters)"),
])
def test_oversized_neq_exit_2_before_any_work(capsys, monkeypatch, argv, neq, shown):
    # validate --neq N checks O(N^3) triples: 100000 used to run for hours
    def refuse(*args):
        raise AssertionError("the algebra was loaded")

    monkeypatch.setattr(cli, "load_algebra", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, argv + ["--neq", str(neq)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: --neq {shown} exceeds the maximum {cli.MAX_NEQ}\n"


@pytest.mark.parametrize("argv", [
    ["validate", "builtin:witt", "--neq", "9" + "x" * 4999],
    ["solve-deriv", "builtin:witt", "--degrees", "0", "--neq", "2", "--ncore", "x" * 4999 + "9"],
    _TPA_LT1 + ["--neq", "x" * 5000],
])
def test_oversized_window_text_is_cut(capsys, argv):
    # argparse used to echo the whole value
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "expected an integer, got '" in err and "… (5000 characters)" in err
    assert len(err.encode()) < 600


@pytest.mark.parametrize("argv, message", [
    (_TPA_LT1 + ["--alpha", "9" * 5000 + ":1"],
     "error: invalid --alpha offset: an integer of about 5000 digits exceeds the maximum 1000\n"),
    (_TPA_LT1 + ["--beta", "-" + "9" * 1001 + ":1"],
     "error: invalid --beta offset: an integer of about 1001 digits exceeds the maximum 1000\n"),
    (_SOLVE_WITT + ["--expect", "0=" + "9" * 5000],
     "error: invalid --expect dim: an integer of about 5000 digits exceeds the maximum 1000\n"),
    (["validate", "builtin:witt", "--neq", "9" * 5000],
     "argument --neq: an integer of about 5000 digits exceeds the maximum 1000\n"),
    (_SOLVE_WITT + ["--ncore", "1" * 4301],
     "argument --ncore: an integer of about 4301 digits exceeds the maximum 1000\n"),
], ids=["alpha", "beta", "expect", "neq", "ncore"])
def test_long_integer_is_named_by_its_size(capsys, argv, message):
    # int() refuses more than 4 300 digits with the ValueError of a non-integer
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.endswith(message) and "must be an integer" not in err


def test_neq_cap_admits_every_documented_window(capsys):
    # the README's shell examples and the benchmark's windows stay within the cap,
    # and the cap itself runs
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    texts = [*re.findall(r"```sh\n(.*?)```", readme, re.S),
             (root / "perfbench" / "workloads.py").read_text()]
    windows = [int(n) for text in texts for n in re.findall(r"--neq[\"', ]+(\d+)", text)]
    assert windows and max(windows) <= cli.MAX_NEQ
    code, out, _ = run(capsys, ["validate", "builtin:witt", "--neq", str(cli.MAX_NEQ)])
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("argv, message", [
    (_SOLVE_WITT + ["--expect", "0=999" + "x" * 4997], "--expect dim must be an integer, got '999"),
    (_SOLVE_WITT + ["--delta", "x" * 5000], "invalid --delta 'xxx"),
    (_TPA_LT1 + ["--alpha", "999" + "x" * 4997 + ":1"], "--alpha offset must be an integer, got '999"),
    (["validate", "builtin:Ltilde1", "--param", "x" * 5000], "malformed parameter 'xxx"),
    (["validate", "builtin:" + "x" * 5000], "unknown catalog algebra 'xxx"),
    (["validate", "builtin:Ltilde1", "--param", "x" * 5000 + "=1"],
     "Ltilde1 takes only parameters lambda and mu, not 'xxx"),
    (["validate", "/nonexist/" + "x" * 4990], ": '/nonexist/xxx"),
    (["list", "--out", "/nonexist/" + "y" * 4990], ": '/nonexist/yyy"),
])
def test_oversized_argument_is_cut_in_the_message(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err and "… (5000 characters)" in err
    assert len(err.encode()) < 300


_X = "x" * 5000
_HEAD = "algebra a\nfamily L integer degree-offset 0\n"


@pytest.mark.parametrize("text, message", [
    (_HEAD + _X + "\n", "line 3, col 1: unknown statement 'xxx"),
    (_HEAD + f"bracket L(m) L(n) = {_X}*L(m+n)\n", "line 3, col 21: unknown parameter 'xxx"),
    (_HEAD + f"family M {_X} degree-offset 0\n",
     "line 3, col 10: family lattice must be 'integer' or 'half', found 'xxx"),
    (_HEAD + f"family M integer degree-offset 0 {_X}\n", "line 3, col 34: trailing input 'xxx"),
    (f"algebra a\nfamily {_X} integer degree-offset 0\nbracket {_X}(m) {_X}(n) = ({_X})*{_X}(m+n)\n",
     "family name 'xxx"),
    (_HEAD + "family " + "9" * 1000 + " integer degree-offset 0\n",
     "line 3, col 8: expected a family name, found '999"),
    (_HEAD + f"bracket L(m) {_X}(n) = L(m+n)\n",
     "line 3, col 1: bracket rule references unknown family 'xxx"),
    (_HEAD + f"family {_X} integer degree-offset 0\n" * 2, "line 4, col 8: duplicate family 'xxx"),
    (_HEAD + f"family {_X} integer degree-offset 0\n" + f"bracket {_X}(m) {_X}(n) = 0\n" * 2,
     "line 5, col 1: duplicate rule for family pair ('xxx"),
], ids=["statement", "parameter", "expect", "trailing", "family-in-coefficient", "number",
        "rule-family", "duplicate-family", "duplicate-rule"])
def test_oversized_token_is_cut_in_the_message(capsys, tmp_path, text, message):
    path = tmp_path / "big.liealg"
    path.write_text(text)
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert message in err and "characters)" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("text, message", [
    (_HEAD + "famly L\n", "line 3, col 1: unknown statement 'famly'"),
    (_HEAD + "bracket L(m) L(n) = lam*L(m+n)\n", "line 3, col 21: unknown parameter 'lam'"),
    (_HEAD + "family M whole degree-offset 0\n",
     "line 3, col 10: family lattice must be 'integer' or 'half', found 'whole'"),
    (_HEAD + "family M integer degree-offset 0 extra\n", "line 3, col 34: trailing input 'extra'"),
    (_HEAD + "bracket L(m) L(n) = (L)*L(m+n)\n",
     "line 3, col 22: family name 'L' not allowed inside a coefficient"),
    (_HEAD + "bracket L(m) L(n) = )*L(m+n)\n", "line 3, col 21: unexpected token ')'"),
    (_HEAD + "bracket L(m) Q(n) = L(m+n)\n",
     "line 3, col 1: bracket rule references unknown family 'Q'"),
    (_HEAD + "family L integer degree-offset 0\n", "line 3, col 8: duplicate family L"),
], ids=["statement", "parameter", "expect", "trailing", "family-in-coefficient", "token",
        "rule-family", "duplicate-family"])
def test_short_token_is_quoted_whole(capsys, tmp_path, text, message):
    path = tmp_path / "small.liealg"
    path.write_text(text)
    assert run(capsys, ["validate", str(path)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["validate", "builtin:nope"], "unknown catalog algebra 'nope'"),
    (["validate", "/nonexist/x.liealg"], "no such file: '/nonexist/x.liealg'"),
    (["list", "--out", "/nonexist/y.json"], "[Errno 2] No such file or directory: '/nonexist/y.json'"),
])
def test_short_argument_is_quoted_whole(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


class TestCheckTpa:
    def test_theorem_product_ok(self, capsys):
        code, out, _ = run(capsys, [
            "check-tpa", "builtin:Ltilde1?lambda=1,mu=1/4",
            "--product", "builtin:theorem",
            "--alpha", "0:1", "--alpha", "-1:2/3", "--beta", "1:-1",
        ])
        assert code == 0
        data = json.loads(out)
        assert [r["check"] for r in data["checks"]] == [
            "commutativity", "associativity", "compatibility",
        ]
        assert all(r["passed"] for r in data["checks"])

    def test_product_file_violation(self, capsys, tmp_path):
        path = tmp_path / "prod.liealg"
        path.write_text("product L(m) L(n) = (1)*M(m+n)\n")
        code, out, _ = run(capsys, [
            "check-tpa", "builtin:so_hat", "--product", str(path),
        ])
        assert code == 1
        data = json.loads(out)
        failing = [r for r in data["checks"] if not r["passed"]]
        assert [r["check"] for r in failing] == ["compatibility"]

    def test_non_utf8_product_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "prod.liealg"
        path.write_bytes(b"# \xff\nproduct L(m) L(n) = (1)*M(m+n)\n")
        code, _, err = run(capsys, [
            "check-tpa", "builtin:so_hat", "--product", str(path),
        ])
        assert code == 2
        assert "product file" in err and "is not UTF-8 text" in err

    def test_alpha_with_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "prod.liealg"
        path.write_text("product L(m) L(n) = (1)*M(m+n)\n")
        code, _, _ = run(capsys, [
            "check-tpa", "builtin:so_hat", "--product", str(path), "--alpha", "0:1",
        ])
        assert code == 2

    def test_negative_neq_exit_2(self, capsys):
        # like validate: a negative window is a usage error, not an empty check
        for command in (["check-tpa", "builtin:Ltilde1?lambda=1,mu=1/4",
                         "--product", "builtin:theorem", "--alpha", "0:1"],
                        ["validate", "builtin:witt"]):
            code, out, err = run(capsys, command + ["--neq", "-1"])
            assert (code, out) == (2, "")
            assert "window bounds must be nonnegative" in err

    @pytest.mark.parametrize("args, message", [
        (["--alpha", "0:1", "--alpha", "0:2"], "--alpha names offset 0 twice"),
        (["--alpha", "0:1", "--beta", "1:1,+1:2"], "--beta names offset 1 twice"),
        (["--alpha", "0:1", "--param", "lambda=2"], "parameter 'lambda' is given twice"),
    ])
    def test_repeated_key_exit_2(self, capsys, args, message):
        # a repeated offset or parameter used to keep one of the values silently
        code, out, err = run(capsys, [
            "check-tpa", "builtin:Ltilde1?lambda=1,mu=1/4", "--product", "builtin:theorem",
        ] + args)
        assert (code, out) == (2, "")
        assert message in err

    def test_theorem_needs_lambda_one(self, capsys):
        code, _, _ = run(capsys, [
            "check-tpa", "builtin:Ltilde1?lambda=2,mu=1/4",
            "--product", "builtin:theorem", "--alpha", "0:1",
        ])
        assert code == 2


class TestRender:
    def test_witt_byte_exact(self, capsys):
        code, out, _ = run(capsys, ["render", "builtin:witt"])
        assert code == 0
        assert out == WITT_CANONICAL

    def test_file_roundtrip_is_fixed_point(self, capsys, tmp_path):
        path = tmp_path / "alg.liealg"
        path.write_text(render_algebra(builtin("so_hat")))
        code, out, _ = run(capsys, ["render", str(path)])
        assert code == 0
        assert out == path.read_text()

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "witt.liealg"
        code, out, _ = run(capsys, ["render", "builtin:witt", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == WITT_CANONICAL


class TestDeterminism:
    def test_json_outputs_are_byte_identical(self, capsys):
        argv = [
            "solve-deriv", "builtin:Ltilde1?lambda=1,mu=1/4",
            "--degrees", "0..1", "--neq", "4", "--ncore", "1",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        json.loads(first)  # valid JSON
