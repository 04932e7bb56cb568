"""Engine run statistics: throughput, queue depth, event-label histogram.

:func:`run_with_stats` drives an :class:`~repro.sim.engine.Engine` to
completion one instant at a time, sampling the queue depth before every
instant and counting labels through a chained trace.  ``Engine.run``
tells you nothing about *where* the events went; this tells you
events/sec, how deep the queue got, and which labels dominated — at the
cost of the traced dispatch branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from ..sim.engine import Engine

__all__ = ["EngineStats", "run_with_stats"]

#: Histogram bucket for events scheduled without a label.
UNLABELED = "(unlabeled)"


@dataclass
class EngineStats:
    """What one observed engine run looked like from the scheduler's seat."""

    events: int = 0
    wall_s: float = 0.0
    sim_time: float = 0.0
    peak_heap: int = 0
    label_histogram: dict = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def top_labels(self, n: int = 10) -> list:
        """The ``n`` most frequent event labels, most frequent first."""
        ranked = sorted(self.label_histogram.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def as_dict(self, top: int = 10) -> dict:
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "sim_time_s": self.sim_time,
            "peak_heap": self.peak_heap,
            "top_labels": dict(self.top_labels(top)),
        }


def run_with_stats(engine: Engine, until: Optional[float] = None) -> EngineStats:
    """Run ``engine`` to completion, collecting :class:`EngineStats`.

    Drives ``Engine.run(until=<next instant>)`` one instant at a time,
    sampling ``Engine.pending_events`` before each instant into
    ``peak_heap``.  ``events`` is the ``events_processed`` delta; labels
    come from a trace attached for the run that chains to any trace
    already there.  An attached trace keeps macro-events disengaged, so a
    stats run stays fine-grained.  With ``until`` the run stops before
    the first instant past it.  Raises
    :class:`~repro.sim.errors.DeadlockError` exactly as ``run()`` would
    if the queue drains with blocked processes.
    """
    stats = EngineStats()
    histogram = stats.label_histogram
    chained = engine.trace

    def count(time: float, label: str) -> None:
        histogram[label] = histogram.get(label, 0) + 1
        if chained is not None:
            chained(time, label)

    engine.trace = count
    start = engine.events_processed
    peak = 0
    t0 = perf_counter()
    try:
        while True:
            nxt = engine.next_time
            if nxt is None:
                # drain hooks and deadlock detection, as run() has them
                engine.run()
                break
            if until is not None and nxt > until:
                break
            peak = max(peak, engine.pending_events)
            engine.run(until=nxt)
    finally:
        engine.trace = chained
        stats.wall_s = perf_counter() - t0
    stats.events = engine.events_processed - start
    unlabeled = stats.events - sum(histogram.values())
    if unlabeled:
        histogram[UNLABELED] = unlabeled
    stats.peak_heap = peak
    stats.sim_time = engine.now
    return stats
