"""``python -m repro.perf`` — the pooled-harness A/B.

Runs the quick conformance matrix sequentially and pooled, plus a
cold/warm cache cycle (see :mod:`repro.perf.harness`); prints a summary
and writes ``BENCH_HARNESS.json``.  ``--min-speedup R`` gates pooled
speedup ≥ R — enforced only when the machine has ≥ 2 cores and more
than one worker was used.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone

from .harness import DEFAULT_SEEDS, bench_harness, render_harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("-o", "--out", default="BENCH_HARNESS.json",
                        help="where to write the JSON "
                             "(default BENCH_HARNESS.json)")
    parser.add_argument("-j", "--jobs", default="auto",
                        help="worker processes, an integer or 'auto' "
                             "(default auto)")
    parser.add_argument("--seeds", type=int, default=None,
                        help="fuzz seeds per case (default: enough for a "
                             "multi-second sequential baseline)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if pooled speedup < this (only enforced "
                             "on multi-core, multi-worker runs)")
    args = parser.parse_args(argv)

    entry = bench_harness(jobs=args.jobs,
                          seeds=args.seeds or DEFAULT_SEEDS)
    payload = {
        "schema": "repro.perf/bench_harness/v1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "harness": entry,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(render_harness(entry))
    print(f"\nwrote {args.out}")

    if not entry["identical_results"]:
        print("FAIL: pooled results differ from sequential", file=sys.stderr)
        return 2
    if args.min_speedup is not None:
        if entry["cpu_count"] < 2 or entry["jobs"] < 2:
            print(f"speedup gate skipped: {entry['cpu_count']} core(s), "
                  f"{entry['jobs']} job(s) — nothing to fan out over")
        elif entry["speedup"] < args.min_speedup:
            print(f"FAIL: pooled speedup {entry['speedup']:.2f}x below the "
                  f"{args.min_speedup:.2f}x gate", file=sys.stderr)
            return 2
        else:
            print(f"speedup gate: {entry['speedup']:.2f}x >= "
                  f"{args.min_speedup:.2f}x ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
