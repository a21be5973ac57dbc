"""Summarise one result set, or compare two, from ``run.py --out`` files.

    python3 bench/compare.py A.jsonl            # spread of each metric
    python3 bench/compare.py A.jsonl B.jsonl    # B (the change) against A

For every workload and metric it prints each side's median and quartiles
over its runs. The spread of a side is (Q3 - Q1) / median, with quartiles
as ``statistics.quantiles(values, n=4)`` gives them. An end-to-end metric is
"unresolved" when either side's spread exceeds the bound in BENCHMARK.json,
unless every run of B reads better than every run of A; otherwise it has
"regressed" when B's median is worse than A's by more than the bound.
Per-layer metrics (traced runs) have no bound and are printed side by side.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values in file order]}} for one file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            prov = record["provenance"]
            key = (prov["workload"], prov["trace"])
            for name, metric in record["result"]["metrics"].items():
                out[key][name].append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # > 0 means B is worse
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        return "better" if b_always_better else "unresolved"
    worse = sign * (quartiles(b)[1] - quartiles(a)[1]) / abs(quartiles(a)[1])
    if worse > bound:
        return "regressed"
    return "better" if b_always_better else "within bound"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def report(a: dict, b: dict | None, spec: dict) -> list[str]:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    for key in sorted(a):
        workload, trace = key
        lines.append(f"{workload} (trace {trace})")
        for name, values in a[key].items():
            m = e2e.get(name)
            if b is None:
                note = ""
                if m is not None:
                    s = spread(values)
                    flag = "OVER BOUND" if s > m["bound"] else (
                        "over bound/3" if s > m["bound"] / 3 else "ok"
                    )
                    note = f"  spread {s:.4f} of bound {m['bound']} {flag}"
                lines.append(f"  {name}: {_fmt(values)}{note}")
                continue
            other = b.get(key, {}).get(name)
            if not other:
                lines.append(f"  {name}: A {_fmt(values)} | B missing")
                continue
            med_a, med_b = quartiles(values)[1], quartiles(other)[1]
            change = (med_b - med_a) / abs(med_a) if med_a else float("nan")
            tail = ""
            if m is not None:
                tail = "  " + verdict(values, other, m["bound"], m["better"])
            lines.append(
                f"  {name}: A {_fmt(values)} | B {_fmt(other)} | "
                f"change {change:+.2%}{tail}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sets = [load(p) for p in argv]
    print("\n".join(report(sets[0], sets[1] if len(sets) == 2 else None, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
