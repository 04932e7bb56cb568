"""CLI entry point: ``python -m repro.verify``.

Runs the conformance matrix (see :mod:`repro.verify.conformance`) and
exits non-zero if any case fails.  ``--quick`` selects the CI smoke
subset; ``--kind/--alg/--shape/--schedule`` filter (all four fault
schedules run when ``--schedule`` is not given; ``--seeds`` applies to
the ``none`` cells, the only fuzzed ones); ``--list`` prints the matrix
without running it.

``-j/--jobs`` fans the cases across worker processes (``-j auto`` =
one per core); pass/fail output is identical to a sequential run.
Results are cached under ``.repro-cache/`` keyed by case content and
source-tree fingerprint, so a re-run with unchanged sources skips the
already-verified cells (``--no-cache`` disables, ``--cache-dir`` moves
the store; see docs/parallel.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from ..exec import DEFAULT_CACHE_DIR, ResultCache
from .conformance import KINDS, SCHEDULES, SHAPES, build_matrix, run_matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="conformance matrix: collectives and image control "
                    "under fault schedules, fuzzed when fault-free",
    )
    parser.add_argument("--seeds", type=int, default=20,
                        help="fuzz seeds per fault-free case (default: "
                             "20; large shapes cap this)")
    parser.add_argument("--quick", action="store_true",
                        help="fast shapes, one payload per kind, and two "
                             "algorithms per kind under faults")
    parser.add_argument("--kind", action="append", choices=sorted(KINDS),
                        help="restrict to one collective kind (repeatable)")
    parser.add_argument("--alg", action="append",
                        help="restrict to one algorithm name (repeatable)")
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES),
                        help="restrict to one machine shape (repeatable)")
    parser.add_argument("--schedule", action="append", choices=SCHEDULES,
                        help="restrict to one fault schedule (repeatable; "
                             "default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print the selected cases and exit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print each case as it runs")
    parser.add_argument("-j", "--jobs", default="1",
                        help="worker processes: an integer or 'auto' "
                             "(one per core); default 1 = sequential")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="with -j > 1: kill a pooled case after this "
                             "many wall-clock seconds and run it once more "
                             "inline, untimed (default: none)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-run cases, ignore cached results")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="result-cache root "
                             f"(default: {DEFAULT_CACHE_DIR})")
    args = parser.parse_args(argv)

    cases = build_matrix(quick=args.quick, kinds=args.kind, algs=args.alg,
                         shapes=args.shape, schedules=args.schedule)
    if not cases:
        print("no cases match the given filters", file=sys.stderr)
        return 2
    if args.list:
        for case in cases:
            print(case.label)
        print(f"{len(cases)} case(s)")
        return 0

    start = time.perf_counter()

    def progress(result) -> None:
        if args.verbose or not result.ok:
            status = "ok" if result.ok else "FAIL"
            suffix = f" ({result.seeds} seed(s))" if result.seeds else ""
            print(f"  {result.case.label:<72} {status}{suffix}")
            if not result.ok:
                for line in result.detail.splitlines():
                    print(f"    {line}")

    stats: dict = {}
    cache = (None if args.no_cache
             else ResultCache(root=args.cache_dir, namespace="verify"))
    print(f"running {len(cases)} conformance case(s), fault-free ones "
          f"also under {args.seeds} fuzz seed(s)...")
    results = run_matrix(cases, seeds=args.seeds, progress=progress,
                         jobs=args.jobs, cache=cache,
                         task_timeout=args.task_timeout, stats_out=stats)
    elapsed = time.perf_counter() - start
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} case(s) passed "
          f"in {elapsed:.1f}s")
    if cache is not None:
        print(f"cache: {cache.hits}/{len(cases)} case(s) served from "
              f"{args.cache_dir} ({stats.get('jobs', 1)} job(s))")
    if failed:
        print("failed cases:")
        for r in failed:
            print(f"  {r.case.label}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
