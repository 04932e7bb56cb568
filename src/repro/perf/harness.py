"""Harness A/B benchmark: sequential vs pooled conformance matrix.

Measures what the :mod:`repro.exec` worker pool actually buys on this
machine by running the same quick conformance matrix three ways:

1. sequential (``jobs=1``, no cache) — the baseline;
2. pooled (``jobs=N``, no cache) — fan-out speedup and per-worker
   utilization, with a result-equality check against the sequential run
   (the pool's ordering guarantee, verified end to end);
3. a cold→warm cache cycle in a throwaway cache directory — how much of
   a re-run the content-keyed cache skips.

The numbers feed ``BENCH_HARNESS.json`` (see ``python -m
repro.perf``) and the CI speedup gate.  On a single-core box the pooled
run is expected to *lose* to sequential (workers time-slice one core);
the gate is therefore only meaningful when ``cpu_count >= 2``.  That
count is the cores this process may run on (its affinity mask), not
the machine's: a process pinned to one core of a big host time-slices
its workers just the same.
"""

from __future__ import annotations

import shutil
import tempfile
from time import perf_counter
from typing import Optional

from ..exec import ResultCache, resolve_jobs
from ..exec.pool import effective_cpu_count
from ..verify.conformance import build_matrix, run_matrix

__all__ = ["bench_harness"]

#: Fuzz seeds per case.  Chosen so the sequential quick matrix takes a
#: few seconds — long enough that the pool's fixed cost (starting and
#: stopping the workers, ~15 ms, plus per-task IPC) cannot mask a
#: genuine multi-core speedup.
DEFAULT_SEEDS = 15


def bench_harness(jobs="auto", seeds: int = DEFAULT_SEEDS,
                  cache_dir: Optional[str] = None) -> dict:
    """Run the A/B and return the ``BENCH_HARNESS.json`` payload body."""
    jobs_n = resolve_jobs(jobs)
    cases = build_matrix(quick=True)

    # 1. sequential baseline
    t0 = perf_counter()
    seq = run_matrix(cases, seeds=seeds, jobs=1)
    seq_wall = perf_counter() - t0

    # 2. pooled, same work, no cache
    stats: dict = {}
    t0 = perf_counter()
    par = run_matrix(cases, seeds=seeds, jobs=jobs_n, stats_out=stats)
    par_wall = perf_counter() - t0

    identical = seq == par
    busy = stats.get("per_worker_busy_s", [])
    utilization = (sum(busy) / (par_wall * jobs_n)
                   if busy and par_wall > 0 else 0.0)

    # 3. cold → warm cache cycle (throwaway directory unless given one)
    root = cache_dir or tempfile.mkdtemp(prefix="repro-harness-cache-")
    try:
        cold_cache = ResultCache(root=root, namespace="harness")
        t0 = perf_counter()
        run_matrix(cases, seeds=seeds, jobs=jobs_n, cache=cold_cache)
        cold_wall = perf_counter() - t0

        warm_cache = ResultCache(root=root, namespace="harness")
        t0 = perf_counter()
        warm = run_matrix(cases, seeds=seeds, jobs=jobs_n, cache=warm_cache)
        warm_wall = perf_counter() - t0
        hit_rate = warm_cache.hits / len(cases) if cases else 0.0
        warm_identical = warm == seq
    finally:
        if cache_dir is None:
            shutil.rmtree(root, ignore_errors=True)

    return {
        "cases": len(cases),
        "seeds": seeds,
        "jobs": jobs_n,
        "cpu_count": effective_cpu_count(),
        "sequential_wall_s": round(seq_wall, 3),
        "pooled_wall_s": round(par_wall, 3),
        "speedup": round(seq_wall / par_wall, 3) if par_wall > 0 else 0.0,
        "identical_results": identical,
        "per_worker_busy_s": [round(b, 3) for b in busy],
        "per_worker_tasks": stats.get("per_worker_tasks", []),
        "worker_utilization": round(utilization, 3),
        "pool_respawns": stats.get("respawns", 0),
        "cache": {
            "cold_wall_s": round(cold_wall, 3),
            "warm_wall_s": round(warm_wall, 3),
            "hit_rate": round(hit_rate, 3),
            "warm_speedup_vs_sequential": (
                round(seq_wall / warm_wall, 3) if warm_wall > 0 else 0.0),
            "warm_identical_results": warm_identical,
        },
    }


def render_harness(entry: dict) -> str:
    """Human-readable summary of a :func:`bench_harness` payload."""
    lines = [
        f"harness A/B: {entry['cases']} case(s) x {entry['seeds']} seed(s), "
        f"{entry['jobs']} job(s) on {entry['cpu_count']} core(s)",
        f"  sequential {entry['sequential_wall_s']:6.2f}s   "
        f"pooled {entry['pooled_wall_s']:6.2f}s   "
        f"speedup {entry['speedup']:.2f}x   "
        f"utilization {entry['worker_utilization'] * 100:.0f}%",
        f"  results identical: {entry['identical_results']}",
    ]
    cache = entry["cache"]
    lines.append(
        f"  cache: cold {cache['cold_wall_s']:.2f}s -> warm "
        f"{cache['warm_wall_s']:.2f}s   hit rate "
        f"{cache['hit_rate'] * 100:.0f}%   "
        f"warm vs sequential {cache['warm_speedup_vs_sequential']:.1f}x"
    )
    return "\n".join(lines)
