"""lieverify benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it starts one worker that issues the workload's CLI
operation in a closed loop (one client) until S seconds after the start,
with ``SETUP_PROBES`` set-up-only processes before and after it, and reports
the end-to-end metrics.
With ``--trace 1`` it runs an untraced worker for the first half of S and a
traced one for the second half, checks that both produced byte-identical
reports, and reports the per-layer metrics.

Every operation's report is checked; failures are counted, never fatal.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of the run
(every operation time, the per-degree system sizes, the spans of a traced
run) go to ``.perfbench/`` in the checkout.  Run from the checkout root.
"""
from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 4  # set-up-only processes before and again after the untraced worker
GRACE_S = 60.0  # how long a worker may run past the deadline before it is killed

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SHARES = (  # inclusive share of the traced operation time
    "catalog.builtin", "dsl.parse_algebra",
    "core.check_skew", "core.check_grading", "core.check_jacobi",
    "derivations.assemble_system", "linalg.sparse_nullspace", "derivations.derivation_residual",
    "tpa.check_commutative", "tpa.check_associative", "tpa.check_compatibility",
)
SELF_SHARES = ("cli.run", "derivations.solve_degree")  # self share: minus timed children
COUNTS = (
    "core.bracket_symbols.calls", "core.bracket_symbols.misses", "poly.Poly.evaluate.calls",
    "core.check_jacobi.tuples", "core.Element.new",
    "derivations.assemble_system.rows", "derivations.assemble_system.cols",
    "derivations.assemble_system.nnz", "linalg.rank", "linalg.kernel_dim",
    "derivations.derivation_residual.calls", "tpa.product.calls", "core.bracket.calls",
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float, work_dir: Path) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--t0", repr(t0), "--deadline", repr(deadline),
           "--work-dir", str(work_dir)]
    timeout = max(deadline - t0, 0.0) + GRACE_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and waits
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise WorkerError(f"{mode} worker printed no result: {exc}") from exc


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value: the 11th largest sample.  With fewer than 11 samples there is no
    such percentile, and the maximum is reported as the 100th."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(probes: list[dict], main: dict) -> tuple[dict, dict]:
    setup = [p["setup_s"] for p in probes] + [main["setup_s"]]
    op_s = main["op_s"]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_s.p50": metric(statistics.median(op_s), "s"),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
    }
    # printed and recorded, not bounded: with 12 to 25 operations in a run it
    # is a low percentile on the solves, and it flips with machine contention
    percentile, tail_value = tail(op_s)
    details = {"op_s.tail": tail_value, "op_s.tail_percentile": percentile,
               "op_s.samples": len(op_s), "setup_s_samples": setup, "op_s_samples": op_s}
    return metrics, details


def _median_of(layers: list[dict], value) -> float:
    return statistics.median(value(layer) for layer in layers)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: dict, traced: dict) -> dict:
    layers = traced["layers"]
    out = {}
    for name in SHARES:
        out[f"{name}.share"] = metric(
            _median_of(layers, lambda l: 100 * l["inclusive"].get(name, 0.0) / l["wall"]), "%")
    for name in SELF_SHARES:
        out[f"{name}.self_share"] = metric(
            _median_of(layers, lambda l: 100 * l["self"].get(name, 0.0) / l["wall"]), "%")
    setup = traced["setup_layers"]
    out["dsl.render_algebra.setup_share"] = metric(
        100 * setup["inclusive"].get("dsl.render_algebra", 0.0) / setup["wall"], "%")
    counts = {name: _median_of(layers, lambda l: l["counts"].get(name, 0)) for name in COUNTS}
    for name in COUNTS:
        out[name] = metric(counts[name], "count")
    out["core.bracket_symbols.hit_ratio"] = metric(
        1 - _ratio(counts["core.bracket_symbols.misses"], counts["core.bracket_symbols.calls"]),
        "ratio")
    sizes = traced["sizes"].values()
    out["derivations.assemble_system.distinct_rows"] = metric(
        sum(s["distinct_rows"] for s in sizes), "count")
    out["linalg.useful_row_ratio"] = metric(
        _ratio(counts["linalg.rank"], counts["derivations.assemble_system.rows"]), "ratio")
    traced_p50 = statistics.median(traced["op_s"])
    out["trace.op_s.p50"] = metric(traced_p50, "s")
    out["trace.overhead_ratio"] = metric(traced_p50 / statistics.median(plain["op_s"]), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lieverify" / "__init__.py").is_file():
        print(f"error: no lieverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and waits for the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    deadline = start + args.seconds
    OUT_DIR.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.trace:
            plain = run_worker(args.workload, args.seed, "run", start + args.seconds / 2,
                               work_root / "plain")
            traced = run_worker(args.workload, args.seed, "trace", deadline, work_root / "traced")
            workers = [plain, traced]
            metrics = per_layer(plain, traced)
            details = {"sizes": traced["sizes"], "plain_op_s": plain["op_s"],
                       "traced_op_s": traced["op_s"], "layers": traced["layers"],
                       "spans": traced["spans"]}
        else:
            def probes(first: int) -> list[dict]:
                return [run_worker(args.workload, args.seed, "setup", 0.0, work_root / f"probe{i}")
                        for i in range(first, first + SETUP_PROBES)]

            before = probes(0)
            main_run = run_worker(args.workload, args.seed, "run", deadline, work_root / "main")
            after = probes(SETUP_PROBES)
            workers = [main_run]
            metrics, details = end_to_end(before + after, main_run)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    attempted = sum(len(w["op_s"]) for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    if args.trace:
        # the wrappers must not change what is measured: identical report bytes
        if traced["digests"] != plain["digests"]:
            failed = plain["failed"] + len(traced["op_s"])
            problems.append(f"traced reports {traced['digests']} differ from untraced "
                            f"{plain['digests']}")

    workload = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "argv": workers[0]["argv"], "attempted": attempted,
              "failed": failed, "problems": problems, "metrics": metrics, **details}
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record))

    print(f"workload {args.workload} (seed {args.seed}): lieverify {' '.join(record['argv'])}")
    print(f"  why: {workload.why}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"  fail_ratio = {failed / attempted:.4f} ({failed} of {attempted} operations)")
    if not args.trace:
        print(f"  op_s.tail = {details['op_s.tail']:.6g} s (unbounded): the "
              f"p{details['op_s.tail_percentile']:.1f} of {details['op_s.samples']} operations")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        for g2, s in traced["sizes"].items():
            print(f"  degree {int(g2) / 2:+g}: " + ", ".join(f"{k} {v}" for k, v in s.items()))
    print(f"  details: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
