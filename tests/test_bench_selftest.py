"""The benchmark's fast self-checks run with the program's tests.

``bench/selftest.py`` pins what the benchmark needs of the program: the
functions it traces in every module that binds them, its workload checks
and its verdicts. All of it but the eight small workload runs (seconds of
wall time each) runs here, in a subprocess, as that file asks to be run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_fast_checks_pass():
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           str(ROOT / "bench" / "selftest.py"),
           "-k", "not test_every_workload_runs_small_with_its_checks_passing"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " passed" in done.stdout and "deselected" in done.stdout
