"""Self-tests of the benchmark itself (stdlib unittest, a few seconds).

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from lieverify import cli, core, derivations, poly, tpa  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, lieverify_modules  # noqa: E402
from worker import run_loop  # noqa: E402
from workloads import WORKLOADS, Expect, Inputs, Workload, check_output, draw_tpa_support  # noqa: E402

# a solve that takes milliseconds: Witt algebra, degrees 0 and 1/2
SMALL_SOLVE = ["solve-deriv", "builtin:witt", "--degrees", "0..1/2", "--neq", "3", "--ncore", "1"]
SMALL_DIMS = {"0": 1, "1/2": 0}


def small_workload(expect: Expect) -> Workload:
    return Workload("small", "test", lambda inp: list(SMALL_SOLVE), expect)


class ExpectationTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.work = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def loop(self, workload: Workload, cli_run=cli.run) -> dict:
        # a deadline already past still runs one operation; give room for three
        return run_loop(workload, Inputs(), time.monotonic() + 0.05, self.work, cli_run)

    def test_correct_expectation_passes(self):
        result = self.loop(small_workload(Expect(dims=SMALL_DIMS)))
        self.assertGreaterEqual(len(result["op_s"]), 1)
        self.assertEqual(result["failed"], 0, result["problems"])

    def test_dimension_off_by_one_is_counted_and_the_run_continues(self):
        wrong = dict(SMALL_DIMS, **{"0": SMALL_DIMS["0"] + 1})
        result = self.loop(small_workload(Expect(dims=wrong)))
        self.assertGreaterEqual(len(result["op_s"]), 2)
        self.assertEqual(result["failed"], len(result["op_s"]))
        self.assertIn("dims", result["problems"][0])

    def test_changed_hash_is_counted(self):
        result = self.loop(small_workload(Expect(sha256="0" * 64, dims=SMALL_DIMS)))
        self.assertEqual(result["failed"], len(result["op_s"]))
        self.assertIn("sha256", result["problems"][0])

    def test_unexpected_exit_code_and_exceptions_are_counted(self):
        bad = Workload("bad", "test", lambda inp: ["validate", "builtin:nosuch"], Expect())
        with contextlib.redirect_stderr(io.StringIO()):
            result = self.loop(bad)
        self.assertEqual(result["failed"], len(result["op_s"]))

        def raising(argv):
            raise RuntimeError("boom")

        result = self.loop(small_workload(Expect(dims=SMALL_DIMS)), raising)
        self.assertEqual(result["failed"], len(result["op_s"]))
        self.assertIn("boom", result["problems"][0])

    def test_check_output_reports_each_mismatch(self):
        payload = b'{"ok": true, "checks": [{"check": "jacobi", "pairs_checked": 5}]}'
        self.assertEqual(check_output(Expect(checks={"jacobi": 5}), 0, payload), [])
        problems = check_output(Expect(checks={"jacobi": 6}), 1, payload)
        self.assertEqual(len(problems), 2)
        self.assertTrue(check_output(Expect(), 0, b"not json"))

    def test_every_workload_has_an_output_check(self):
        for workload in WORKLOADS.values():
            self.assertTrue(workload.expect.sha256 or workload.expect.checks, workload.name)
            self.assertLessEqual(len(workload.why), 200)


class SeedTests(unittest.TestCase):
    def test_same_seed_same_draw(self):
        for seed in range(5):
            self.assertEqual(draw_tpa_support(seed), draw_tpa_support(seed))

    def test_draws_vary_and_stay_in_range(self):
        draws = {repr(draw_tpa_support(seed)) for seed in range(10)}
        self.assertGreater(len(draws), 1)
        for seed in range(10):
            for entries in draw_tpa_support(seed):
                offsets = [int(e.split(":")[0]) for e in entries]
                self.assertEqual(len(set(offsets)), 2)
                self.assertTrue(all(-3 <= t <= 3 for t in offsets))
                self.assertTrue(all(e.split(":")[1] not in ("0", "-0") for e in entries))


def snapshot() -> dict:
    attrs = {(mod.__name__, attr): value
             for mod in lieverify_modules() for attr, value in vars(mod).items()}
    attrs["Element.__init__"] = vars(core.Element)["__init__"]
    attrs["Poly.evaluate"] = vars(poly.Poly)["evaluate"]
    return attrs


class TracerTests(unittest.TestCase):
    def test_wrap_and_unwrap_leave_every_attribute_as_it_was(self):
        before = snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            # references imported by name are wrapped too
            self.assertIsNot(cli.check_jacobi, before[("lieverify.cli", "check_jacobi")])
            self.assertIsNot(cli.solve_derivations, before[("lieverify.cli", "solve_derivations")])
            self.assertIsNot(derivations.bracket_symbols,
                             before[("lieverify.derivations", "bracket_symbols")])
            self.assertIsNot(tpa.bracket, before[("lieverify.tpa", "bracket")])
            self.assertIsNot(vars(core.Element)["__init__"], before["Element.__init__"])
        finally:
            tracer.uninstall()
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_traced_reports_are_byte_identical_and_sizes_recorded(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "r.json"
            cli.run(SMALL_SOLVE + ["--out", str(out)])
            plain = out.read_bytes()
            tracer = Tracer()
            tracer.install()
            try:
                first = tracer.begin_op(0)
                cli.run(SMALL_SOLVE + ["--out", str(out)])
                summary = tracer.summarize(first, 1.0)
            finally:
                tracer.uninstall()
            self.assertEqual(out.read_bytes(), plain)
        self.assertEqual(sorted(tracer.sizes), [0, 1])
        for record in tracer.sizes.values():
            self.assertEqual(set(record), {"rows", "distinct_rows", "cols", "nnz", "rank",
                                           "kernel_dim", "interior_dim"})
            self.assertEqual(record["rank"] + record["kernel_dim"], record["cols"])
        self.assertEqual(summary["counts"]["derivations.solve_degree.calls"], 2)
        self.assertGreater(summary["counts"]["core.bracket_symbols.calls"], 0)
        self.assertLessEqual(summary["self"]["cli.run"], summary["inclusive"]["cli.run"])

    def test_tracer_refuses_a_second_install(self):
        tracer = Tracer()
        tracer.install()
        try:
            self.assertRaises(RuntimeError, tracer.install)
        finally:
            tracer.uninstall()


class TailTests(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail([float(i) for i in range(20)]), (50.0, 9.0))
        self.assertEqual(run.tail([float(i) for i in range(100)]), (90.0, 89.0))

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (100.0, 3.0))


class BenchmarkJsonTests(unittest.TestCase):
    """BENCHMARK.json names exactly what run.py prints, within its limits."""

    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_keys_and_limits(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], [HERE.name])
        self.assertEqual(spec["command"][1], f"{HERE.name}/run.py")
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                      spec["end_to_end"])
        # 4 + 22 runs per workload, each the run time plus about 3 s of start and set-up
        runs = 4 + 22 * len(spec["workloads"])
        self.assertLess(runs * (spec["run_seconds"] + 3), 3420)

    def test_metric_names_match_the_output(self):
        main_run = {"setup_s": 0.1, "op_s": [1.0, 2.0], "peak_rss_mb": 20.0}
        layer = {"wall": 1.0, "inclusive": {}, "self": {}, "counts": {}}
        traced = {"op_s": [1.0], "layers": [layer], "setup_layers": layer, "sizes": {}}
        for kind, metrics in (("end_to_end", run.end_to_end([{"setup_s": 0.1}], main_run)[0]),
                              ("per_layer", run.per_layer(main_run, traced))):
            self.assertEqual({name: m["unit"] for name, m in metrics.items()},
                             {m["name"]: m["unit"] for m in self.spec[kind]})


if __name__ == "__main__":
    unittest.main()
