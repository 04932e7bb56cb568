"""Engine run statistics.

:func:`~repro.perf.stats.run_with_stats` drives any engine one instant
at a time and returns events/sec, wall time, peak queue depth and an
event-label histogram.

Simulator speed is measured end to end, as host time per simulated
operation on the paper's workloads, by ``perfbench/`` at the repository
root (see ``perfbench/README.md``).
"""

from .stats import EngineStats, run_with_stats

__all__ = ["EngineStats", "run_with_stats"]
