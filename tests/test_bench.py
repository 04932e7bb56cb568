"""Tests for the benchmark harnesses and result tables."""

import pytest

from repro.bench import (
    barrier_benchmark,
    broadcast_benchmark,
    config_label,
    figure1,
    mpi_barrier_benchmark,
    reduce_benchmark,
    sweep,
)
from repro.bench.tables import ResultTable, Series
from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL


class TestTables:
    def test_config_label(self):
        assert config_label(64, 8) == "64(8)"

    def test_series_ratio(self):
        fast = Series("fast", {"a": 1.0, "b": 2.0})
        slow = Series("slow", {"a": 10.0, "b": 5.0})
        assert fast.ratio_to(slow) == {"a": 10.0, "b": 2.5}

    def test_ratio_skips_missing_labels(self):
        fast = Series("fast", {"a": 1.0, "b": 1.0})
        slow = Series("slow", {"a": 2.0})
        assert fast.ratio_to(slow) == {"a": 2.0}

    def test_render_contains_all_systems_and_labels(self):
        table = ResultTable("T", labels=["4(4)", "16(2)"])
        table.add_series(Series("sysA", {"4(4)": 1.5, "16(2)": 2.5}))
        table.add_series(Series("sysB", {"4(4)": 3.5}))
        text = table.render()
        assert "sysA" in text and "sysB" in text
        assert "4(4)" in text and "16(2)" in text
        assert "1.50" in text and "-" in text  # missing value renders as -

    def test_get_unknown_series_raises(self):
        table = ResultTable("T", labels=[])
        with pytest.raises(KeyError):
            table.get("nope")

    def test_speedup_row(self):
        table = ResultTable("T", labels=["x"])
        table.add_series(Series("fast", {"x": 1.0}))
        table.add_series(Series("slow", {"x": 26.0}))
        row = table.speedup_row("fast", "slow")
        assert "26.0x" in row


class TestMicrobench:
    def test_barrier_benchmark_returns_positive_latency(self):
        res = barrier_benchmark(8, 4, UHCAF_2LEVEL, iters=4)
        assert res.seconds_per_op > 0

    def test_barrier_traffic_accounting(self):
        res = barrier_benchmark(8, 4, UHCAF_2LEVEL, iters=4)
        # TDLB on 2 nodes of 4: intra 2·2·3=12, inter 2 per op.  The
        # window edges catch releases in flight, so allow ±2 intra.
        assert 10 <= res.traffic_per_op.intra_messages <= 14
        assert res.traffic_per_op.inter_messages == 2

    def test_reduce_benchmark(self):
        res = reduce_benchmark(8, 4, UHCAF_2LEVEL, nelems=4, iters=4)
        assert res.seconds_per_op > 0

    def test_broadcast_benchmark(self):
        res = broadcast_benchmark(8, 4, UHCAF_2LEVEL, nelems=4, iters=4)
        assert res.seconds_per_op > 0

    def test_team_fraction_runs_on_subteam(self):
        full = barrier_benchmark(8, 4, UHCAF_2LEVEL, iters=4)
        half = barrier_benchmark(8, 4, UHCAF_2LEVEL, iters=4,
                                 team_fraction=0.5)
        # the 4-image subteam fits one node → cheaper than the full team
        assert half.seconds_per_op < full.seconds_per_op

    def test_mpi_barrier_benchmark_all_tunings(self):
        for tuning in ("mvapich", "openmpi", "openmpi-hierarch"):
            res = mpi_barrier_benchmark(8, 4, tuning, iters=4)
            assert res.seconds_per_op > 0

    def test_mpi_barrier_traffic_accounting(self):
        # MPI rows share the CAF traffic-mark protocol: per-op counters,
        # warm-up excluded.  A barrier moves messages, not payload-free
        # magic, and a flat tuning crosses the fabric every round.
        res = mpi_barrier_benchmark(8, 4, "mvapich", iters=4)
        total = (res.traffic_per_op.inter_messages
                 + res.traffic_per_op.intra_messages)
        assert total > 0
        assert res.traffic_per_op.inter_messages > 0

    def test_mpi_unknown_tuning_rejected(self):
        with pytest.raises(ValueError):
            mpi_barrier_benchmark(4, 2, "fastest")

    def test_sweep_builds_full_table(self):
        table = sweep(
            "demo",
            configs=[(4, 2), (8, 2)],
            systems=[
                ("two", lambda i, n: barrier_benchmark(
                    i, i // n, UHCAF_2LEVEL, iters=2).seconds_per_op),
                ("one", lambda i, n: barrier_benchmark(
                    i, i // n, UHCAF_1LEVEL, iters=2).seconds_per_op),
            ],
        )
        assert len(table.series) == 2
        assert set(table.get("two").values) == {"4(2)", "8(2)"}
        assert all(v > 0 for v in table.get("one").values.values())

    def test_sweep_reports_failed_cells_and_continues(self):
        def flaky(i, n):
            if i == 8:
                raise RuntimeError("cell exploded")
            return 1.0

        table = sweep(
            "demo",
            configs=[(4, 2), (8, 2)],
            systems=[
                ("flaky", flaky),
                ("steady", lambda i, n: 2.0),
            ],
        )
        flaky_series = table.get("flaky")
        assert "4(2)" in flaky_series.values
        assert "8(2)" in flaky_series.failures
        assert "cell exploded" in flaky_series.failures["8(2)"]
        # the other system's sweep is unaffected
        assert set(table.get("steady").values) == {"4(2)", "8(2)"}
        text = table.render()
        assert "FAIL" in text and "cell exploded" in text


class TestFigure1Harness:
    def test_quick_mode_preserves_orderings(self, quick_report):
        table = figure1(quick=True, cache=quick_report[1])
        two = table.get("UHCAF 2level")
        gfortran = table.get("CAF2.0 GFortran backend")
        for label in table.labels:
            assert two.values[label] > gfortran.values[label]

    def test_quick_mode_has_all_five_systems(self, quick_report):
        table = figure1(quick=True, cache=quick_report[1])
        assert len(table.series) == 5
