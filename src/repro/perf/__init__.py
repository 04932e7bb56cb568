"""Run-orchestration benchmark and engine run statistics.

* ``python -m repro.perf`` — the pooled-harness A/B: the quick
  conformance matrix run sequentially and through the :mod:`repro.exec`
  pool, plus a cold/warm result-cache cycle (:mod:`repro.perf.harness`),
  written to ``BENCH_HARNESS.json``.  CI's harness-perf-smoke job gates
  the pooled speedup.
* :func:`~repro.perf.stats.run_with_stats` — drive any engine one
  instant at a time and get events/sec, wall time, peak queue depth and
  an event-label histogram back.

Simulator speed is measured end to end, as host time per simulated
operation on the paper's workloads, by ``perfbench/`` at the repository
root (see ``perfbench/README.md``).
"""

from .stats import EngineStats, run_with_stats

__all__ = ["EngineStats", "run_with_stats"]
