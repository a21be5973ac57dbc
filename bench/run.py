"""Benchmark of mdlmlab: four closed-loop workloads and a traced per-layer run.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 bench/run.py --workload exact-layered --seed 0 --seconds 20 --trace 0

``--trace 0`` times several cold set-ups, each in a forked process, then
measures the workload for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs a fixed amount of work, sized from ``--seconds``, twice
from a fresh set-up: first plain, then with every layer wrapped, and prints
the per-layer metrics; a fixed amount makes each count repeat exactly for a
seed. Both modes check the program's outputs. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
``--out FILE`` also appends the run, with its provenance, as one JSON line;
``compare.py`` reads such files. Metric names are explained in GLOSSARY.md.
"""

import os

# BLAS and OpenMP read these once, when numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11
# p95 of a run rests on at least ten operations above it only from this many.
MIN_P95_OPS = 200
# Seconds ``reference_work`` takes when the development box (two cores) is
# quiet. Times are reported at that host speed; only their scale rests on it.
REFERENCE_S = 0.8e-3
WORKLOAD_NAMES = ("exact-layered", "mc-oracle", "mc-transformer", "train")


def _program_on_path() -> None:
    src = ROOT / "src"
    if not (src / "mdlmlab" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {src / 'mdlmlab'} is missing")
    for path in (str(BENCH), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_program():
    """Import the benchmark's modules and, through them, mdlmlab from ``src/``.

    Returns the ``workloads`` and ``tracer`` modules.
    """
    _program_on_path()
    import tracer
    import workloads

    return workloads, tracer


def _cold_setup(name: str, seed: int) -> tuple[float, float]:
    """One cold set-up, in a forked process: (seconds, reference seconds).

    mdlmlab and ``workloads`` are imported afresh (dropped from
    ``sys.modules`` first if this process holds them), then the workload's
    inputs are built. The reference work is timed right after.
    """
    for key in list(sys.modules):
        if key == "workloads" or key.split(".")[0] == "mdlmlab":
            del sys.modules[key]
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workloads.WORKLOADS[name].setup(seed)
    seconds = time.perf_counter() - t0
    reference = [workloads.time_reference() for _ in range(11)]
    return seconds, statistics.median(reference)


def cold_setup_s(name: str, seed: int) -> tuple[float, float]:
    """Median seconds of ``SETUP_REPEATS`` cold set-ups, one process each.

    A set-up is the import of mdlmlab and the build of the workload's
    inputs, as the first run in a fresh process does them. Each runs in a
    process forked from this one and is scaled by the reference time taken
    after it, like the loop's operations. Returns the scaled and the plain
    median. numpy and ``scipy.special``, the libraries the program is
    built on, are imported here first and so are not timed: they are most
    of a cold start, the program does not control them, and from one run to
    the next their import varied by up to 40 % while the reference time did
    not explain it. Any other module that mdlmlab imports is timed. The
    children are forked rather than spawned so that they start with those
    libraries loaded; the run has no threads to lose in a fork, with BLAS
    pinned to one.
    """
    _program_on_path()
    importlib.import_module("numpy")
    importlib.import_module("scipy.special")
    plain, scaled = [], []
    for _ in range(SETUP_REPEATS):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                os.write(write_fd, json.dumps(_cold_setup(name, seed)).encode())
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            text = fh.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"a cold set-up of {name} failed")
        seconds, reference = json.loads(text)
        plain.append(seconds)
        scaled.append(seconds * REFERENCE_S / reference)
    return statistics.median(scaled), statistics.median(plain)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(log, reference_s: float | None) -> dict:
    """Throughput and per-unit latency of one timed loop, at reference speed.

    Each operation's seconds per unit are divided by the time of the
    reference work taken right after it and multiplied by ``reference_s``:
    the time the operation would have taken on a host that runs the
    reference work in ``reference_s``. With ``reference_s`` None they stay
    plain seconds.

    Each kind of operation (a policy, or a training step) is summarised on
    its own. ``ops_per_s`` is the rate of a mix holding one unit of every
    kind, from each kind's mean, so it does not depend on where the deadline
    cuts the loop. ``op_ms_p50`` is the median over kinds of each kind's
    median: a pooled median of a mix of slow and fast kinds jumps between
    the two clusters from run to run. ``op_ms_p95`` pools every operation.
    """
    if reference_s is None:
        scale = [1.0] * len(log.seconds)
    else:
        scale = [reference_s / r for r in log.reference_s]
    norm = [f * s / u for s, u, f in zip(log.seconds, log.units, scale)]
    by_kind: dict = {}
    for kind, t in zip(log.kinds, norm):
        by_kind.setdefault(kind, []).append(t)
    means = [statistics.fmean(ts) for ts in by_kind.values()]
    medians = [statistics.median(ts) for ts in by_kind.values()]
    return {
        "ops_per_s": (len(means) / sum(means), "1/s"),
        "op_ms_p50": (1000.0 * statistics.median(medians), "ms"),
        "op_ms_p95": (1000.0 * _percentile(norm, 95), "ms"),
    }


def _scaled_total(log) -> float:
    """Operation time summed after scaling each by its reference time."""
    return sum(s / r for s, r in zip(log.seconds, log.reference_s))


def benchmark(name: str, seed: int, seconds: float, trace: int):
    """Run one workload; returns (result, provenance, raw figures, errors).

    An untraced run reports the timed loop's figures and ``setup_s`` at
    reference host speed (see ``end_to_end`` and ``cold_setup_s``). The raw
    figures are the loop's metrics and ``setup_s`` unscaled, the number of
    operations and the mean reference time; None for a traced run.
    """
    if not trace:  # before this process imports the program
        setup_s, setup_plain_s = cold_setup_s(name, seed)
    workloads, tracer = import_program()
    wl = workloads.WORKLOADS[name]
    clock = time.perf_counter
    checked = []  # (log, per-operation verdicts)
    raw = None
    if trace:
        ctx = wl.setup(seed)
        n_ops = ctx.mix_ops * max(1, round(seconds * wl.trace_mixes_per_s))
        plain = wl.run(ctx, max_ops=n_ops)
        checked.append((plain, wl.check(ctx, plain)))
        ctx = wl.setup(seed)
        spans = tracer.Tracer()
        with tracer.installed(spans):
            traced = wl.run(ctx, max_ops=n_ops)
        leftover = tracer.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"tracing wrappers left installed: {leftover}")
        checked.append((traced, wl.check(ctx, traced)))
        overhead = _scaled_total(traced) / _scaled_total(plain)
        metrics = tracer.layer_metrics(spans, sum(traced.seconds), overhead)
    else:
        ctx = wl.setup(seed)
        log = wl.run(ctx, deadline=clock() + seconds)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked.append((log, wl.check(ctx, log)))
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mib, "MiB"),
            **end_to_end(log, REFERENCE_S),
        }
        raw = {k: v for k, (v, _) in end_to_end(log, None).items()}
        raw["ops"] = len(log.seconds)
        raw["setup_s"] = setup_plain_s
        raw["reference_ms_mean"] = 1000.0 * statistics.fmean(log.reference_s)
    attempted = sum(log.attempted() for log, _ in checked)
    failed = sum(
        units
        for log, ok in checked
        for units, good in zip(log.units, ok)
        if not good
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    errors = [e for log, _ in checked for e in log.errors]
    return result, provenance(name, seed, seconds, trace), raw, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    result, prov, raw, errors = benchmark(
        args.workload, args.seed, args.seconds, args.trace
    )
    for err in errors[:5]:
        print(f"operation raised: {err}", file=sys.stderr)
    if raw is not None and raw["ops"] < MIN_P95_OPS:
        print(
            f"warning: op_ms_p95 rests on {raw['ops']} operations, "
            f"fewer than {MIN_P95_OPS}",
            file=sys.stderr,
        )
    print("provenance " + json.dumps(prov, sort_keys=True))
    if raw is not None:
        print("raw " + json.dumps(raw, sort_keys=True))
    if args.out:
        record = {"provenance": prov, "raw": raw, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
