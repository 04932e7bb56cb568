"""Tests for the ``repro.perf`` instrumentation layer."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    bench_burst,
    bench_engine_dispatch,
    bench_macro_barrier,
    bench_macro_bcast,
    bench_macro_reduce,
    bench_sync_kernel,
    bench_tdlb_barrier,
    bench_trampoline,
    run_with_stats,
)
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


class TestMicrobenchmarks:
    # Event counts and end times the bucketed kernel and the flat
    # tuple-heap kernel it replaced both produced on these workloads.
    @pytest.mark.parametrize("bench, kwargs, events, end_time", [
        pytest.param(bench_trampoline, dict(events=2_000, chains=4),
                     2000, 1.9960000000000157e-06, id="trampoline"),
        pytest.param(bench_engine_dispatch, dict(procs=4, events_per_proc=100),
                     404, 3.9999999999999956e-07, id="engine_dispatch"),
        pytest.param(bench_burst, dict(procs=4, events_per_proc=100),
                     404, 9.999999999999989e-08, id="burst"),
        pytest.param(bench_sync_kernel, dict(pairs=2, rounds=50),
                     204, 9.999999999999989e-08, id="sync_kernel"),
    ])
    def test_event_count_and_end_time_pinned(self, bench, kwargs, events,
                                             end_time):
        result = bench(repeats=1, **kwargs)
        assert result.events == events
        assert result.sim_time == end_time
        assert result.events_per_sec > 0

    def test_tdlb_barrier_end_to_end(self):
        result = bench_tdlb_barrier(iters=5, num_images=8, images_per_node=4,
                                    repeats=1)
        assert result.events > 0
        assert result.sim_time > 0
        assert result.name == "tdlb_barrier"

    def test_timeout_chain_event_count_is_exact(self):
        # procs * (1 start + events_per_proc timeouts) engine events.
        res = bench_engine_dispatch(procs=3, events_per_proc=10, repeats=1)
        assert res.events == 3 * 11

    def test_macro_barrier_collapses_events_with_identical_time(self):
        entry = bench_macro_barrier(iters=4, num_images=32, repeats=1)
        assert entry["identical_final_time"]
        assert entry["sim_time_macro_s"] == entry["sim_time_fine_s"] > 0
        assert entry["events_macro"] < entry["events_fine"]
        assert entry["event_ratio"] > 5

    def test_macro_reduce_collapses_chained_windows(self):
        entry = bench_macro_reduce(iters=4, num_images=32, repeats=1)
        assert entry["identical_final_time"]
        assert entry["identical_results"]
        assert not entry["inexact"]
        # Every window replays exactly — none pinned fine.
        assert entry["replays"] == 4
        assert entry["events_macro"] < entry["events_fine"]
        assert entry["event_ratio"] > 5

    def test_macro_bcast_single_window_exact(self):
        entry = bench_macro_bcast(iters=1, num_images=64, repeats=1)
        assert entry["identical_final_time"]
        assert entry["identical_results"]
        assert not entry["inexact"]
        assert entry["replays"] == 1
        # Bounded by the arrival floor (one registration event per
        # member), so modest — but strictly fewer events than fine.
        assert entry["events_macro"] < entry["events_fine"]


class TestPerfCli:
    @pytest.fixture()
    def tiny_sizes(self, monkeypatch):
        from repro.perf import __main__ as cli
        monkeypatch.setitem(cli.SIZES, "smoke", {
            "trampoline": dict(events=1_000, chains=4, repeats=1),
            "engine_dispatch": dict(procs=4, events_per_proc=100, repeats=1),
            "burst": dict(procs=4, events_per_proc=100, repeats=1),
            "sync_kernel": dict(pairs=2, rounds=20, repeats=1),
            "tdlb_barrier": dict(iters=3, num_images=8, images_per_node=4,
                                 repeats=1),
            "macro_barrier": dict(iters=2, num_images=16, repeats=1),
            "macro_reduce": dict(iters=2, num_images=16, repeats=1),
            "macro_bcast": dict(iters=1, num_images=16, repeats=1),
        })
        return cli

    def test_smoke_writes_schema_json(self, tiny_sizes, tmp_path, capsys):
        out = tmp_path / "BENCH_SIM_KERNEL.json"
        assert tiny_sizes.main(["--smoke", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.perf/bench_sim_kernel/v1"
        assert payload["mode"] == "smoke"
        assert set(payload["benchmarks"]) == {
            "trampoline", "engine_dispatch", "burst", "sync_kernel",
            "tdlb_barrier", "tdlb_barrier_stats", "macro_barrier",
            "macro_reduce", "macro_bcast",
        }
        head = payload["headline"]
        assert head["engine_events_per_sec"] > 0
        assert "speedup_vs_legacy" not in head
        assert head["macro_identical_final_time"] is True
        assert head["macro_event_ratio"] > 1
        assert head["macro_reduce_exact"] is True
        assert head["macro_bcast_exact"] is True
        assert head["macro_reduce_event_ratio"] > 1
        assert "engine microbenchmark" in capsys.readouterr().out

    def test_baseline_gate_passes_and_fails(self, tiny_sizes, tmp_path):
        out = tmp_path / "fresh.json"
        assert tiny_sizes.main(["--smoke", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())

        lenient = tmp_path / "lenient.json"
        lenient.write_text(json.dumps(payload))
        assert tiny_sizes.main([
            "--smoke", "-o", str(out), "--baseline", str(lenient),
            "--min-ratio", "0.01",
        ]) == 0

        impossible = dict(payload)
        impossible["headline"] = {
            "engine_events_per_sec": payload["headline"]["engine_events_per_sec"] * 1e6,
        }
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(impossible))
        assert tiny_sizes.main([
            "--smoke", "-o", str(out), "--baseline", str(strict),
            "--min-ratio", "0.7",
        ]) == 2

    def test_committed_baseline_has_required_headline(self):
        # CI gates against the committed file; keep its shape honest.
        from pathlib import Path
        root = Path(__file__).resolve().parent.parent
        payload = json.loads((root / "BENCH_SIM_KERNEL.json").read_text())
        assert payload["schema"] == "repro.perf/bench_sim_kernel/v1"
        assert payload["headline"]["engine_events_per_sec"] > 0


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
        assert cli.main(["--harness", "-j", "2", "-o", str(out),
                         "--min-speedup", "1e9"]) == 0
        entry = json.loads(out.read_text())["harness"]
        assert entry["cpu_count"] == 1
        assert entry["identical_results"] is True
        assert "speedup gate skipped" in capsys.readouterr().out
