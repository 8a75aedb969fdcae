"""Command-line front end.

    lieverify list
    lieverify validate <src> [--neq N]
    lieverify solve-deriv <src> --degrees a..b --step half --neq 8 --ncore 3
    lieverify check-tpa <src> --product builtin:theorem --alpha 0:1 --neq 4
    lieverify render <src>

An algebra source is either a path to a .liealg file or
``builtin:NAME[?key=value,key=value]`` for a catalog entry, e.g.
``builtin:Ltilde1?lambda=1,mu=1/4``.  Exit codes: 0 verified, 1 a check
found a violation (or --expect mismatched), 2 parse/usage error, 3 the
requested parameters violate a case guard.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import catalog, dsl, tpa
from .core import (
    AlgebraSpec,
    Report,
    StructureError,
    Window,
    WindowError,
    check_grading,
    check_jacobi,
    check_skew,
    format_index2,
    format_symbol,
)
from .derivations import solve_derivations

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CASE = 3
MAX_DEGREES = 1000  # degrees one solve-deriv call may ask for


class UsageError(ValueError):
    pass


def _shown(text: str) -> str:
    """repr(text) for a message; past 40 characters, the first 40, '…' and the length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}… ({len(text)} characters)"


def _parse_fraction(text: str, what: str = "value") -> Fraction:
    # Fraction() expands a decimal exponent, so 1e200000 would build a
    # 200 001-digit integer: bound the digits written plus the exponent first
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(c.isdecimal() for c in mantissa)
    try:
        size += abs(int(exponent))
    except ValueError:  # no exponent, one too long for int(), or not an integer
        size += sum(c.isdecimal() for c in exponent)
    if size > dsl.MAX_DIGITS:
        raise UsageError(
            f"invalid {what}: a rational of about {size} digits exceeds the maximum {dsl.MAX_DIGITS}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid {what} {_shown(text)}: expected a rational like 3 or -1/2") from exc


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"{what} must be an integer, got {_shown(text)}") from exc


def _entries(items: Sequence[str], sep: str, what: str, form: str) -> Iterator[tuple[str, str]]:
    """The (key, value) halves of comma-separated `key<sep>value` entries."""
    for item in items:
        for chunk in item.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, found, value = chunk.partition(sep)
            if not found:
                raise UsageError(f"malformed {what} {_shown(chunk)}: expected {form}")
            yield key.strip(), value.strip()


def _once(pairs: Iterable[tuple], twice: Callable[..., str]) -> Iterator[tuple]:
    """Pass (key, value) pairs through; a key seen before raises UsageError(twice(key))."""
    seen = set()
    for key, value in pairs:
        if key in seen:
            raise UsageError(twice(key))
        seen.add(key)
        yield key, value


def _parse_params(items: Sequence[str]) -> dict[str, Fraction]:
    pairs = _entries(items, "=", "parameter", "name=value")
    return {
        name: _parse_fraction(value, f"parameter {_shown(name)}")
        for name, value in _once(pairs, lambda name: f"parameter {_shown(name)} is given twice")
    }


def load_algebra(src: str, extra_params: Sequence[str] = ()) -> AlgebraSpec:
    if src.startswith("builtin:"):
        rest = src[len("builtin:"):]
        name, _, query = rest.partition("?")
        # --param and the query form one list, so a name may appear once in all
        params = _parse_params([*extra_params, query])
        if not name:
            raise UsageError("empty builtin algebra name")
        return catalog.builtin(name, params or None)
    params = _parse_params(extra_params)
    return dsl.parse_algebra(_read_source(src, "file"), params)


def _read_source(src: str, what: str) -> str:
    """The text of a .liealg file; a missing or non-UTF-8 file is a usage error."""
    path = Path(src)
    if not path.is_file():
        raise UsageError(f"no such {what}: {src}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{what} {src} is not UTF-8 text: byte {exc.start} is invalid") from None


def _doubled(value: Fraction, what: str) -> int:
    twice = value * 2
    if twice.denominator != 1:
        raise UsageError(f"{what} must be a half-integer, got {_shown(str(value))}")
    return int(twice)


def _parse_degrees(spec_text: str, step: str) -> list[int]:
    if ".." in spec_text:
        lo_s, _, hi_s = spec_text.partition("..")
        lo2 = _doubled(_parse_fraction(lo_s, "degree"), "degree")
        hi2 = _doubled(_parse_fraction(hi_s, "degree"), "degree")
        if hi2 < lo2:
            raise UsageError(f"empty degree range {_shown(spec_text)}")
        step2 = 1 if step == "half" else 2
        # counted here, as len() of a range of 10**900 degrees overflows
        count = (hi2 - lo2) // step2 + 1
        degrees2 = range(lo2, hi2 + 1, step2)
    else:
        degrees2 = [_doubled(_parse_fraction(c, "degree"), "degree")
                    for c in spec_text.split(",") if c]
        if not degrees2:
            raise UsageError(f"empty degree list {_shown(spec_text)}")
        count = len(degrees2)
    if count > MAX_DEGREES:
        shown = count if count < 10**12 else f"about 10^{len(str(count)) - 1}"
        raise UsageError(
            f"--degrees {_shown(spec_text)} asks for {shown} degrees; the maximum is {MAX_DEGREES}"
        )
    return list(degrees2)


def _parse_expect(text: str, degrees2: Sequence[int]) -> dict[int, int]:
    pairs = ((_doubled(_parse_fraction(deg, "degree"), "degree"), dim)
             for deg, dim in _entries([text], "=", "--expect entry", "degree=dim"))
    expected: dict[int, int] = {}
    for g2, dim in _once(pairs, lambda g2: f"--expect names degree {format_index2(g2)} twice"):
        if g2 not in degrees2:
            raise UsageError(f"--expect degree {format_index2(g2)} is not in --degrees")
        expected[g2] = _parse_int(dim, "--expect dim")
    return expected


def _parse_support(items: Sequence[str], what: str) -> dict[int, Fraction]:
    pairs = ((_parse_int(off, f"{what} offset"), val)
             for off, val in _entries(items, ":", f"{what} entry", "offset:value"))
    return {
        off: _parse_fraction(val, f"{what} value")
        for off, val in _once(pairs, lambda off: f"{what} names offset {off} twice")
    }


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _reports_dict(spec: AlgebraSpec, reports: list[Report]) -> dict:
    return {
        "algebra": spec.name,
        "params": {k: str(v) for k, v in sorted(spec.params.items())},
        "checks": [r.as_dict() for r in reports],
        "ok": all(r.passed for r in reports),
    }


def _reports_text(spec: AlgebraSpec, reports: list[Report]) -> str:
    lines = [f"algebra: {spec.name}"]
    for rep in reports:
        status = "ok" if rep.passed else f"{len(rep.violations)} violation(s)"
        lines.append(f"  {rep.check}: checked {rep.pairs_checked} tuples, {status}")
        for v in rep.violations[:10]:
            witness = ", ".join(format_symbol(s) for s in v.witness)
            lines.append(f"    at ({witness}): residual {v.residual!r}")
    return "\n".join(lines)


def cmd_list(args) -> int:
    entries = []
    for name in catalog.catalog_names():
        params = ["lambda", "mu"] if catalog.needs_params(name) else []
        entries.append({"name": name, "parameters": params})
    if args.format == "json":
        _emit(_dump_json({"algebras": entries}), args.out)
    else:
        lines = []
        for e in entries:
            req = f" (parameters: {', '.join(e['parameters'])})" if e["parameters"] else ""
            lines.append(f"{e['name']}{req}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = load_algebra(args.src, args.param)
    window = Window(2 * args.neq, 0)
    reports = [
        check_skew(spec, window),
        check_grading(spec, window),
        check_jacobi(spec, window),
    ]
    if args.format == "json":
        _emit(_dump_json(_reports_dict(spec, reports)), args.out)
    else:
        _emit(_reports_text(spec, reports), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def cmd_solve_deriv(args) -> int:
    spec = load_algebra(args.src, args.param)
    degrees2 = _parse_degrees(args.degrees, args.step)
    expected = _parse_expect(args.expect, degrees2) if args.expect else None
    window = Window.displayed(args.neq, args.ncore)
    delta = _parse_fraction(args.delta, "--delta")
    report = solve_derivations(spec, degrees2, window, delta)
    payload = report.as_dict()
    mismatch: list[str] = []
    if expected is not None:
        for g2, dim in sorted(expected.items()):
            actual = report.dims[g2]
            if actual != dim:
                mismatch.append(
                    f"degree {format_index2(g2)}: expected dim {dim}, got {actual}"
                )
        payload["expect_ok"] = not mismatch
    residual_ok = all(d.residual_checked for d in report.degrees)
    if args.format == "json":
        _emit(_dump_json(payload), args.out)
    else:
        lines = [f"algebra: {spec.name}  delta={delta}"]
        for deg in report.degrees:
            gens = "; ".join(g.description for g in deg.generators) or "-"
            lines.append(
                f"  degree {format_index2(deg.degree2)}: dim {deg.interior_dim}  [{gens}]"
            )
        lines.extend(f"  MISMATCH {m}" for m in mismatch)
        _emit("\n".join(lines), args.out)
    for m in mismatch:
        print(m, file=sys.stderr)
    return EXIT_OK if not mismatch and residual_ok else EXIT_VIOLATION


def cmd_check_tpa(args) -> int:
    spec = load_algebra(args.src, args.param)
    if args.product == "builtin:theorem":
        alpha = _parse_support(args.alpha, "--alpha")
        beta = _parse_support(args.beta, "--beta")
        prod = tpa.theorem_product(spec, alpha, beta)
    else:
        if args.alpha or args.beta:
            raise UsageError("--alpha/--beta are only valid with --product builtin:theorem")
        prod = tpa.parse_products(_read_source(args.product, "product file"), spec)
    window = Window(2 * args.neq, 0)
    reports = tpa.check_tpa(prod, window.n_eq2)
    if args.format == "json":
        _emit(_dump_json(_reports_dict(spec, reports)), args.out)
    else:
        _emit(_reports_text(spec, reports), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def cmd_render(args) -> int:
    spec = load_algebra(args.src, args.param)
    _emit(dsl.render_algebra(spec), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieverify",
        description="Exact verification for graded Lie algebras: bracket axioms, "
        "delta-derivation solving, and transposed Poisson structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_src=True):
        if with_src:
            p.add_argument("src", help="algebra source: .liealg file or builtin:NAME?k=v,...")
            p.add_argument(
                "--param",
                action="append",
                default=[],
                metavar="NAME=VALUE",
                help="parameter substitution (repeatable; rationals like 1/4)",
            )
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", metavar="PATH", help="write the report to a file")

    p = sub.add_parser("list", help="list built-in algebras")
    add_common(p, with_src=False)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("validate", help="check skew-symmetry, grading, and Jacobi")
    add_common(p)
    p.add_argument("--neq", type=int, default=5, metavar="N", help="index window |i| <= N")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve-deriv", help="solve for homogeneous delta-derivations")
    add_common(p)
    p.add_argument("--degrees", required=True, metavar="A..B", help="degree range, e.g. -2..2")
    p.add_argument("--step", choices=("half", "integer"), default="half")
    p.add_argument("--neq", type=int, required=True, metavar="N", help="equation window")
    p.add_argument("--ncore", type=int, required=True, metavar="K", help="interior window")
    p.add_argument("--delta", default="1/2", metavar="Q", help="derivation scalar (default 1/2)")
    p.add_argument("--expect", metavar="D=K,...", help="expected dims, e.g. 0=2,1/2=1")
    p.set_defaults(func=cmd_solve_deriv)

    p = sub.add_parser("check-tpa", help="check a transposed Poisson structure")
    add_common(p)
    p.add_argument(
        "--product",
        required=True,
        metavar="SRC",
        help="product file with `product` statements, or builtin:theorem",
    )
    p.add_argument("--alpha", action="append", default=[], metavar="T:V")
    p.add_argument("--beta", action="append", default=[], metavar="T:V")
    p.add_argument("--neq", type=int, default=4, metavar="N")
    p.set_defaults(func=cmd_check_tpa)

    p = sub.add_parser("render", help="print the canonical .liealg text")
    add_common(p)
    p.set_defaults(func=cmd_render)
    return parser


_VALUE_OPTS = ("--degrees", "--expect", "--alpha", "--beta", "--delta", "--param")


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Turn `--degrees -2..2` into `--degrees=-2..2` so argparse does not
    mistake a leading-minus value for an option."""
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_OPTS:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except catalog.CaseViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CASE
    except (UsageError, dsl.DslError, StructureError, WindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
