"""Tests of the benchmark itself; the program's own tests live in tests/.

    python3 -m pytest bench/selftest.py -q

The name does not match ``test_*.py``, so the program's test run never
collects this file; run it alone, never beside a benchmark run.
"""

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

workloads, tracer = run.import_program()

from mdlmlab import core, harness, nn, oracle  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def at(x, action, *args):
        now[0] = x
        action(*args)

    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9] (which
    # holds another function of layer b over [6, 8])
    at(0, t.enter, "a", "fa")
    at(1, t.enter, "b", "fb")
    at(2, t.enter, "c", "fc")
    at(3, t.exit)
    at(4, t.exit)
    at(5, t.enter, "b", "fb")
    at(6, t.enter, "b", "fb2")
    at(8, t.exit)
    at(9, t.exit)
    at(10, t.exit)
    assert dict(t.self_s) == {"a": 3.0, "b": 6.0, "c": 1.0}
    assert sum(t.self_s.values()) == 10.0  # self times tile the root span
    assert dict(t.calls) == {"a": 1, "b": 2, "c": 1}  # b inside b is one call
    assert t.fn_calls["fb"] == 2 and t.fn_calls["fb2"] == 1


def test_wrappers_cover_every_binding_and_are_all_removed():
    originals = {
        "sample_joint": oracle.sample_joint,
        "with_tokens": core.SequenceState.__dict__["with_tokens"],
    }
    t = tracer.Tracer()
    with pytest.raises(KeyError):
        with tracer.installed(t):
            # one function, four bindings: its module, two importers, the package
            for ns in (oracle, nn, harness, sys.modules["mdlmlab"]):
                assert ns.sample_joint is not originals["sample_joint"]
            oracle.sample_joint(harness.reference_dag_model(42), np.random.default_rng(0))
            core.SequenceState(core.Vocabulary(2), (1, 3)).with_tokens({1: 2})
            assert tracer.leftover_wrappers()
            raise KeyError("the block fails; the wrappers must still go")
    assert t.calls["oracle.sample_joint"] == 1 and t.calls["core.with_tokens"] == 1
    assert tracer.leftover_wrappers() == []
    for ns in (oracle, nn, harness, sys.modules["mdlmlab"]):
        assert ns.sample_joint is originals["sample_joint"]
    assert core.SequenceState.__dict__["with_tokens"] is originals["with_tokens"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_runs_small_with_its_checks_passing(name, trace):
    result, prov, raw, errors = run.benchmark(name, seed=0, seconds=0.3, trace=trace)
    assert errors == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert raw["reference_ms_mean"] > 0 and raw["op_ms_p50"] > 0
        assert raw["ops"] >= 1
    assert tracer.leftover_wrappers() == []
    assert prov["seed"] == 0 and prov["workload"] == name
    assert set(prov["threads"].values()) == {"1"}


def test_exact_check_catches_a_value_off_the_record():
    wl = workloads.WORKLOADS["exact-layered"]
    ctx = wl.setup(0)
    log = wl.run(ctx, max_ops=2)
    assert wl.check(ctx, log) == [True, True]
    log.outputs[1][2].tv_distance += 1e-7
    assert wl.check(ctx, log) == [True, False]


def test_mc_check_catches_samples_from_the_wrong_distribution():
    wl = workloads.WORKLOADS["mc-oracle"]
    ctx = wl.setup(0)
    log = wl.run(ctx, max_ops=6 * ctx.mix_ops)
    assert all(wl.check(ctx, log))
    for out in log.outputs:
        if out[0] == 0:  # every sample of policy 0 becomes one sequence
            n = sum(out[3].values())
            out[3].clear()
            out[3][(1,) * ctx.gen_len] = n
    verdicts = wl.check(ctx, log)
    assert verdicts == [out[0] != 0 for out in log.outputs]


def test_mc_tv_bound_holds_for_exact_draws():
    rng = np.random.default_rng(1)
    q = {(k,): p for k, p in enumerate(rng.dirichlet(np.ones(64)))}
    keys = list(q)
    n = 2000
    for _ in range(20):
        draws = Counter(keys[i] for i in rng.choice(len(keys), size=n, p=list(q.values())))
        empirical = {k: c / n for k, c in draws.items()}
        assert harness.tv_distance(empirical, q) <= workloads.mc_tv_bound(q, n)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    slower = [v * 0.8 for v in steady]
    faster = [v * 1.05 for v in steady]
    assert compare.verdict(steady, steady, 0.1, "higher") == "within bound"
    assert compare.verdict(steady, slower, 0.1, "higher") == "regressed"
    assert compare.verdict(steady, noisy, 0.1, "higher") == "unresolved"
    assert compare.verdict(steady, faster, 0.1, "higher") == "better"
    assert compare.verdict(steady, slower, 0.1, "lower") == "better"


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
