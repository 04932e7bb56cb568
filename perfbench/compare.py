"""Compare the parent's perfbench runs with a change's.

    python3 -m perfbench.compare A1.json A2.json ... -- B1.json B2.json ...

Each file is what ``perfbench/run.py --out`` wrote; the A files are the
parent's runs, the B files the change's, made alternately (A1, B1, A2,
B2, ... with which side goes first alternating) so they pair up in
order.  Per (workload, metric):

* end-to-end metrics (bounds from ``BENCHMARK.json``):
  ``gain`` when the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range, over at least 10 pairs (with fewer, such a
  result is ``unresolved``); ``regression`` when the
  change's median is worse than the parent's by more than the bound;
  ``unresolved`` when either side's spread (IQR / median) exceeds the
  bound, unless every change run beats every parent run (``better``);
  else ``same``;
* counts (per-layer metrics that are not host times) must be equal in
  every run: ``same`` or ``changed``;
* host-time per-layer metrics are printed without a verdict.

Exit status 1 on any regression, changed count or failed output check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from perfbench.run import load_spec, quartiles

#: per-layer metrics that are host measurements, not simulated counts
HOST_TIMED = ("trace.overhead", "exec.utilization", "exec.worker_busy_s",
              "exec.encode_s")

MIN_PAIRS = 10


def is_count(name: str) -> bool:
    return not (name.endswith((".self_s", ".share")) or name in HOST_TIMED)


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> str:
    """The choosing-metrics verdict for one end-to-end metric."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    med_a, q1_a, q3_a = quartiles(list(parent))
    med_b, q1_b, q3_b = quartiles(list(change))
    if wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > q3_a - q1_a:
        return "gain" if len(pairs) >= MIN_PAIRS else "unresolved"
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "regression"
    spread = max((q3_a - q1_a) / abs(med_a), (q3_b - q1_b) / abs(med_b))
    if spread > bound:
        if all(sign * (a - b) > 0 for a in parent for b in change):
            return "better"
        return "unresolved"
    return "same"


def count_verdict(parent: Sequence[float], change: Sequence[float]) -> str:
    return "same" if len(set(parent) | set(change)) == 1 else "changed"


def collect(paths: Sequence[str]):
    """``({(workload, metric): [values per file]}, failed checks)``."""
    values: Dict[tuple, List[float]] = {}
    failed = 0
    for path in paths:
        for workload, record in json.loads(Path(path).read_text())["workloads"].items():
            failed += record["failed"]
            for metric, entry in record["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values, failed


def compare(parent_paths: Sequence[str], change_paths: Sequence[str]) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    a, failed_a = collect(parent_paths)
    b, failed_b = collect(change_paths)
    pairs = min(len(parent_paths), len(change_paths))
    if pairs < MIN_PAIRS:
        print(f"only {pairs} pairs: no gain can be claimed (need {MIN_PAIRS})")
    status = 0
    print(f"{'workload':12s} {'metric':28s} {'unit':8s} "
          f"{'parent median [q1, q3]':36s} {'change median [q1, q3]':36s} "
          f"{'change/parent':>13s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        va, vb = a[key], b[key]
        if metric in bounds:
            m = bounds[metric]
            result = verdict(va, vb, m["bound"], m["better"])
        elif is_count(metric):
            result = count_verdict(va, vb)
        else:
            result = ""
        if result in ("regression", "changed"):
            status = 1
        ma, q1a, q3a = quartiles(va)
        mb, q1b, q3b = quartiles(vb)
        ratio = f"{mb / ma:.4f}" if ma else "-"
        side_a = f"{ma:.6g} [{q1a:.4g}, {q3a:.4g}]"
        side_b = f"{mb:.6g} [{q1b:.4g}, {q3b:.4g}]"
        print(f"{workload:12s} {metric:28s} {units.get(metric, ''):8s} "
              f"{side_a:36s} {side_b:36s} {ratio:>13s}  {result}")
    print(f"failed output checks: parent {failed_a}, change {failed_b}")
    if failed_b:
        status = 1
    return status


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent, change = argv[:cut], argv[cut + 1:]
    if not parent or not change:
        print("need parent files before -- and change files after it",
              file=sys.stderr)
        return 2
    return compare(parent, change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
