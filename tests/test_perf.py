"""Tests for the ``repro.perf`` instrumentation layer."""

from __future__ import annotations

import json

import pytest

from repro.perf import run_with_stats
from repro.perf.stats import UNLABELED
from repro.sim import Cell, Engine, Process, WaitFor
from repro.sim.errors import DeadlockError


class TestRunWithStats:
    def test_counts_and_histogram(self):
        engine = Engine()
        hits = []
        engine.schedule(1e-6, lambda: hits.append(1), label="tick")
        engine.schedule(2e-6, lambda: hits.append(2), label="tick")
        engine.schedule(3e-6, lambda: hits.append(3))  # unlabeled
        stats = run_with_stats(engine)
        assert hits == [1, 2, 3]
        assert stats.events == 3
        assert stats.label_histogram == {"tick": 2, UNLABELED: 1}
        assert stats.sim_time == pytest.approx(3e-6)
        assert stats.peak_heap == 3
        assert stats.events_per_sec > 0

    def test_peak_heap_tracks_schedule_bursts(self):
        engine = Engine()

        def fan_out():
            for _ in range(10):
                engine.schedule(1e-6, lambda: None)

        engine.schedule(0.0, fan_out, label="fan")
        stats = run_with_stats(engine)
        assert stats.events == 11
        assert stats.peak_heap == 10

    def test_top_labels_ranked_by_frequency(self):
        engine = Engine()
        for _ in range(3):
            engine.schedule(1e-6, lambda: None, label="common")
        engine.schedule(1e-6, lambda: None, label="rare")
        stats = run_with_stats(engine)
        assert stats.top_labels(1) == [("common", 3)]

    def test_deadlock_still_raised(self):
        engine = Engine()
        cell = Cell(engine, name="never")

        def stuck():
            yield WaitFor(cell, lambda v: v > 0)

        Process(engine, stuck(), name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            run_with_stats(engine)

    def test_until_horizon_stops_early(self):
        engine = Engine()
        engine.schedule(1e-6, lambda: None, label="early")
        engine.schedule(1.0, lambda: None, label="late")
        stats = run_with_stats(engine, until=1e-3)
        assert stats.label_histogram == {"early": 1}


class TestHarnessMode:
    def test_pinned_to_one_core_skips_the_speedup_gate(self, monkeypatch,
                                                       tmp_path, capsys):
        """A process pinned to one core of a 64-core host records one
        core, so ``--min-speedup`` skips instead of gating workers that
        time-slice that core."""
        import os

        from repro.perf import __main__ as cli
        from repro.perf import harness

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness, "run_matrix",
                            lambda cases, **kwargs: [c.label for c in cases])
        out = tmp_path / "BENCH_HARNESS.json"
        assert cli.main(["-j", "2", "-o", str(out),
                         "--min-speedup", "1e9"]) == 0
        entry = json.loads(out.read_text())["harness"]
        assert entry["cpu_count"] == 1
        assert entry["identical_results"] is True
        assert "speedup gate skipped" in capsys.readouterr().out
