"""The benchmark's own self-test, run as part of the suite.

The benchmark tracer wraps lieverify functions by name, so a rename or an
import change in the package breaks it; running its self-test here makes
such a break fail with the unit tests rather than only at benchmark time.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
