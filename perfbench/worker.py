"""One workload in one fresh Python process: set up, then a closed loop of
operations with one client until the deadline.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --t0 T --deadline D --work-dir DIR

MODE is ``setup`` (set up and exit: a set-up time probe), ``run`` (the
untraced loop) or ``trace`` (the same loop with the tracer installed
before set-up).  T and D are ``time.monotonic()`` readings taken by the
parent: T just before it started this process, D the time after which no
new operation starts.  The result is one JSON object on the last line of
standard output.  A failed operation is counted and the loop goes on.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import SO_HAT, WORKLOADS, Inputs, check_output, draw_tpa_support  # noqa: E402

MAX_PROBLEMS = 5  # failure messages kept per run; all failures are counted


def build_inputs(workload, seed: int, work_dir: Path, run) -> Inputs:
    inputs = Inputs()
    if workload.render_input:
        inputs.liealg = work_dir / "so_hat.liealg"
        code = run(["render", SO_HAT, "--out", str(inputs.liealg)])
        if code != 0:
            raise RuntimeError(f"render {SO_HAT} exited with {code}")
    if workload.seeded:
        inputs.alpha, inputs.beta = draw_tpa_support(seed)
    return inputs


def run_loop(workload, inputs, deadline: float, work_dir: Path, cli_run, tracer=None) -> dict:
    """Issue the workload's operation until ``deadline``; at least once."""
    argv = workload.argv(inputs)
    out = work_dir / "report.json"
    op_s, digests, problems, layers = [], set(), [], []
    failed = 0
    while not op_s or time.monotonic() < deadline:
        op = len(op_s)
        out.unlink(missing_ok=True)
        first_span = tracer.begin_op(op) if tracer else 0
        start = time.perf_counter()
        try:
            code = cli_run(argv + ["--out", str(out)])
            wall = time.perf_counter() - start
            payload = out.read_bytes()
            wrong = check_output(workload.expect, code, payload)
            digests.add(hashlib.sha256(payload).hexdigest())
        except Exception as exc:  # a failed operation is counted, never fatal
            wall = time.perf_counter() - start
            wrong = [f"raised {type(exc).__name__}: {exc}"]
        op_s.append(wall)
        if tracer:
            layers.append(tracer.summarize(first_span, wall))
        if wrong:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"operation {op}: " + "; ".join(wrong))
    return {"argv": argv, "op_s": op_s, "failed": failed, "problems": problems,
            "digests": sorted(digests), "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    from lieverify import cli

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    inputs = build_inputs(workload, args.seed, args.work_dir, cli.run)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if tracer:
        result["setup_layers"] = tracer.summarize(0, setup_s)
    if args.mode != "setup":
        result.update(run_loop(workload, inputs, args.deadline, args.work_dir, cli.run, tracer))
    if tracer:
        tracer.uninstall()
        result["sizes"] = {str(g2): record for g2, record in sorted(tracer.sizes.items())}
        result["spans"] = [list(span) for span in tracer.spans]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
