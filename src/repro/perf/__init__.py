"""Simulation-kernel performance instrumentation.

The discrete-event engine's throughput is the "hardware speed" of this
reproduction — every experiment regenerates by pushing events through
it — so this package makes that speed observable:

* :func:`~repro.perf.stats.run_with_stats` — drive any engine one instant
  at a time and get events/sec, wall time, peak queue depth and an
  event-label histogram back.
* :mod:`repro.perf.bench` — microbenchmarks (engine dispatch, same-time
  burst, trampoline, sync-cell kernel, end-to-end TDLB barrier, and the
  macro-event barrier/reduce/broadcast A/Bs).
* ``python -m repro.perf`` — the CLI; writes ``BENCH_SIM_KERNEL.json``
  (the perf trajectory consumed by CI's perf-smoke job, which gates the
  engine microbenchmark against the committed file).
"""

from .bench import (
    BenchResult,
    bench_burst,
    bench_engine_dispatch,
    bench_macro_barrier,
    bench_macro_bcast,
    bench_macro_reduce,
    bench_sync_kernel,
    bench_tdlb_barrier,
    bench_trampoline,
)
from .stats import EngineStats, run_with_stats

__all__ = [
    "BenchResult", "EngineStats", "run_with_stats",
    "bench_burst", "bench_engine_dispatch", "bench_macro_barrier",
    "bench_macro_bcast", "bench_macro_reduce",
    "bench_sync_kernel", "bench_tdlb_barrier", "bench_trampoline",
]
