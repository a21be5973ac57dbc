"""Run the benchmark once per (workload, seed), one run at a time.

    python3 bench/sweep.py --out runs.jsonl --seeds 0-9 [--workloads mc-oracle,train] [--trace 1]

Each run is a separate ``run.py`` process, as the benchmark is meant to be
run; runs append to ``--out`` and the spread of every metric is printed at
the end. Never run this beside the test suite or another sweep: the machine
has two cores and a second job shows up in every timing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
from run import ROOT, WORKLOAD_NAMES


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads(compare.SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    run_py = Path(__file__).resolve().with_name("run.py")
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [
                sys.executable, str(run_py), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", args.out,
            ]
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:120]}")
            if done.returncode:
                print(done.stderr, file=sys.stderr)
    print("\n".join(compare.report(compare.load(args.out), None, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
