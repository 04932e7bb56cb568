"""Shared-memory-window collectives, tuned dispatch, and the tournament.

Covers the PR's three layers: the shmwin algorithm family's semantics
(results, determinism, faults, and the intra-node performance edge it
exists for), the generalized registry's explicit-capability contract,
and tuned dispatch pinned against a fixed crossover table plus the
tournament CLI that produces one.
"""

import json

import numpy as np
import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.microbench import reduce_benchmark
from repro.collectives import registry
from repro.collectives.tuned import (
    CrossoverTable,
    install_table,
    payload_band,
    shape_key,
)
from repro.faults import FAILED, FaultSchedule, ImageFailure, Stat
from repro.runtime.config import UHCAF_2LEVEL, UHCAF_TUNED
from tests.conftest import run_small

SHMWIN = UHCAF_2LEVEL.with_(
    name="uhcaf-shmwin", barrier="shmwin", reduce="shmwin",
    broadcast="shmwin", macro_events=False,
)


@pytest.fixture(autouse=True)
def _clean_table():
    """Never leak an installed crossover table between tests."""
    yield
    install_table(None)


def _collective_mix(ctx):
    """Barrier + allreduce + rooted reduce + broadcast, twice."""
    me = ctx.this_image()
    n = ctx.num_images()
    out = []
    for round_ in range(2):
        yield from ctx.sync_all()
        s = yield from ctx.co_sum(float(me + round_))
        r = yield from ctx.co_sum(me, result_image=1)
        b = yield from ctx.co_broadcast([me * 2.0, float(round_)],
                                        source_image=min(2, n))
        out.append((s, r, b))
    yield from ctx.sync_all()
    return tuple(out)


def _check_mix(result, images):
    src = min(2, images)
    base = images * (images + 1) // 2
    for pos in range(images):
        rounds = result.results[pos]
        for round_, (s, r, b) in enumerate(rounds):
            assert s == float(base + round_ * images)
            assert r == (base if pos == 0 else None)
            assert b == [src * 2.0, float(round_)]


# ----------------------------------------------------------------------
class TestShmwinSemantics:
    @pytest.mark.parametrize("images,ipn", [(8, 8), (8, 4), (3, 2), (7, 4),
                                            (4, 1), (1, 1)])
    def test_collective_mix_all_shapes(self, images, ipn):
        result = run_small(_collective_mix, images=images, ipn=ipn,
                           config=SHMWIN)
        _check_mix(result, images)

    def test_numa_node(self):
        """4-socket single node: window stores land on distinct socket
        controllers, results must still be exact."""
        from repro.machine.spec import MachineSpec, NetworkSpec, NodeSpec
        from repro.runtime import run_spmd

        result = run_spmd(
            _collective_mix, num_images=8, images_per_node=8,
            spec=MachineSpec(1, NodeSpec(cores=8, sockets=4), NetworkSpec()),
            config=SHMWIN,
        )
        _check_mix(result, 8)

    def test_double_run_is_bit_identical(self):
        a = run_small(_collective_mix, images=8, ipn=4, config=SHMWIN)
        b = run_small(_collective_mix, images=8, ipn=4, config=SHMWIN)
        assert a.time == b.time
        assert a.results == b.results

    def test_rooted_reduce_slave_running_ahead(self):
        """A slave that reads no result of a rooted reduce stores its
        next contribution at once; the leader must still wait for every
        slave's own store, not for a count that store inflated."""
        def main(ctx):
            value = ctx.this_image() * 3 + 1
            out = []
            for _ in range(2):
                out.append((yield from ctx.co_max(value)))
                out.append((yield from ctx.co_max(value, result_image=1)))
            return out

        result = run_small(main, images=8, ipn=8, config=SHMWIN)
        assert result.results[0] == [25, 25, 25, 25]
        assert all(out == [25, None, 25, None]
                   for out in result.results[1:])
        assert result.world.initial_shared._win_values == {}

    @pytest.mark.parametrize("sources", [(2, 8), (8, 2)])
    def test_non_leader_sources_on_different_nodes(self, sources):
        """Two broadcasts whose non-leader sources sit on different
        nodes: each source's leader waits on its own seed flag, so the
        seed count is kept per leader, not per team."""
        def main(ctx):
            out = []
            for src in sources:
                out.append((yield from ctx.co_broadcast(
                    float(ctx.this_image()), source_image=src)))
            return out

        result = run_small(main, images=8, ipn=4, config=SHMWIN)
        assert all(out == [float(s) for s in sources]
                   for out in result.results)

    def test_window_slots_do_not_leak(self):
        result = run_small(_collective_mix, images=8, ipn=4, config=SHMWIN)
        assert result.world.initial_shared._win_values == {}

    def test_user_named_op_and_array_payloads(self):
        def main(ctx):
            v = np.full(4, float(ctx.this_image()))
            total = yield from ctx.co_reduce(v, "max")
            return total

        result = run_small(main, images=6, ipn=3, config=SHMWIN)
        for out in result.results:
            assert np.array_equal(out, np.full(4, 6.0))


# ----------------------------------------------------------------------
class TestShmwinPerformance:
    def test_allreduce_beats_two_level_intra_node(self):
        """The tentpole claim: on a fully intra-node shape with a small
        payload, operating directly on the node window beats routing
        every contribution through the leader's mailbox."""
        shm = reduce_benchmark(
            8, 8, UHCAF_2LEVEL.with_(reduce="shmwin", macro_events=False))
        two = reduce_benchmark(
            8, 8, UHCAF_2LEVEL.with_(macro_events=False))
        assert shm.seconds_per_op < two.seconds_per_op

    def test_barrier_beats_tdlb_intra_node(self):
        from repro.bench.microbench import barrier_benchmark

        shm = barrier_benchmark(
            8, 8, UHCAF_2LEVEL.with_(barrier="shmwin", macro_events=False))
        tdlb = barrier_benchmark(
            8, 8, UHCAF_2LEVEL.with_(macro_events=False))
        assert shm.seconds_per_op < tdlb.seconds_per_op


# ----------------------------------------------------------------------
class TestShmwinFaults:
    FAIL_3 = FaultSchedule(failures=(ImageFailure(3, 20e-6),))

    def test_survivors_observe_failed_window_peer(self):
        """A window peer fail-stops mid-run; survivors blocked on the
        node flags surface STAT_FAILED_IMAGE at the next collective."""
        def main(ctx):
            st = Stat()
            for done in range(30):
                yield from ctx.sync_all(stat=st)
                if not st.ok:
                    return ("stat", st.code, tuple(st.failed_indices), done)
                total = yield from ctx.co_sum(1.0, stat=st)
                if not st.ok:
                    return ("stat", st.code, tuple(st.failed_indices), done)
                yield from ctx.compute(seconds=5e-6)
            return ("ok", total)

        result = run_small(main, images=4, config=SHMWIN, faults=self.FAIL_3)
        assert result.results[2] == FAILED
        from repro.faults import STAT_FAILED_IMAGE

        for pos in (0, 1, 3):
            tag, code, failed, _done = result.results[pos]
            assert tag == "stat" and code == STAT_FAILED_IMAGE
            assert failed == (3,)

    def test_survivor_reformation_gets_fresh_window_cells(self):
        """Kill a node leader; the re-formed team is a new TeamShared, so
        its window slots and node flags start clean and shmwin
        collectives on the survivor team are exact."""
        def main(ctx):
            st = Stat()
            for _ in range(30):
                yield from ctx.sync_all(stat=st)
                if not st.ok:
                    break
                yield from ctx.compute(seconds=5e-6)
            else:
                return "never saw the failure"
            new_view = yield from ctx.survivor_team()
            yield from ctx.change_team(new_view)
            total = yield from ctx.co_sum(1)
            b = yield from ctx.co_broadcast(new_view.index * 10,
                                            source_image=1)
            assert new_view.shared._win_values == {}
            yield from ctx.end_team()
            return (new_view.size, total, b)

        result = run_small(
            main, images=4, config=SHMWIN,
            faults=FaultSchedule(failures=(ImageFailure(1, 20e-6),)))
        assert result.results[0] == FAILED
        for out in result.results[1:]:
            assert out == (3, 3, 10)

    def test_fault_runs_repeat_exactly(self):
        def main(ctx):
            st = Stat()
            done = 0
            for _ in range(30):
                yield from ctx.sync_all(stat=st)
                if not st.ok:
                    return done
                done += 1
                yield from ctx.compute(seconds=5e-6)
            return done

        a = run_small(main, images=4, config=SHMWIN, faults=self.FAIL_3)
        b = run_small(main, images=4, config=SHMWIN, faults=self.FAIL_3)
        assert a.time == b.time and a.results == b.results


# ----------------------------------------------------------------------
class TestRegistryHygiene:
    def test_macro_kind_is_mandatory_keyword(self):
        with pytest.raises(TypeError):
            registry.register("barrier", "zz-test", lambda ctx, view: None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register("barrier", "tdlb", lambda ctx, view: None,
                              macro_kind=None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown collective kind"):
            registry.register("gather9", "x", lambda: None, macro_kind=None)

    def test_capability_map_preserved(self):
        """The PR 8 macro capability map is exactly reproduced by the
        explicit declarations — no entry gained or lost."""
        assert registry.MACRO_CAPABLE == {
            ("barrier", "tdlb"): "tdlb",
            ("barrier", "linear"): "linear",
            ("reduce", "two-level"): "reduce-2l",
            ("reduce", "recursive-doubling"): "reduce-rd",
            ("broadcast", "two-level"): "bcast-2l",
        }

    def test_new_families_declare_fine_grained(self):
        for kind in ("barrier", "reduce", "broadcast"):
            for name in ("shmwin", "tuned"):
                assert registry.macro_kind(kind, name) is None
                assert registry.info(kind, name).macro_kind is None

    def test_info_exposes_callable(self):
        from repro.collectives.shmwin import barrier_shmwin

        assert registry.info("barrier", "shmwin").fn is barrier_shmwin

    def test_xscale_assertion_allows_fine_when_asked(self):
        from repro.bench.xscale import assert_macro_capable

        tuned_cfg = UHCAF_TUNED
        with pytest.raises(ValueError, match="not macro-capable"):
            assert_macro_capable(tuned_cfg)
        kinds = assert_macro_capable(tuned_cfg, allow_fine=True)
        assert set(kinds.values()) == {None}


# ----------------------------------------------------------------------
class TestTunedDispatch:
    ROWS = [
        {"kind": "barrier", "nodes": 1, "ipn": 8, "band": "small",
         "algorithm": "shmwin"},
        {"kind": "reduce", "nodes": 1, "ipn": 8, "band": "small",
         "algorithm": "shmwin"},
        {"kind": "reduce", "nodes": 1, "ipn": 8, "band": "large",
         "algorithm": "binomial-flat"},
        {"kind": "broadcast", "nodes": 1, "ipn": 8, "band": "small",
         "algorithm": "binomial-flat"},
    ]

    def _mixed_payloads(self, ctx):
        me = ctx.this_image()
        yield from ctx.sync_all()
        small = yield from ctx.co_sum(float(me))
        large = yield from ctx.co_sum(np.ones(65536))
        b = yield from ctx.co_broadcast(7, source_image=1)
        return (small, float(large[0]), b)

    def test_selection_pinned_by_table(self):
        """Golden: a fixed crossover table makes dispatch deterministic —
        the cached per-team selections are exactly the table rows."""
        install_table(self.ROWS)
        result = run_small(self._mixed_payloads, images=8, ipn=8,
                           config=UHCAF_TUNED)
        assert result.world.initial_shared.tuned_selections == {
            ("barrier", "small"): "shmwin",
            ("reduce", "small"): "shmwin",
            ("reduce", "large"): "binomial-flat",
            ("broadcast", "small"): "binomial-flat",
        }
        for out in result.results:
            assert out == (36.0, 8.0, 7)

    def test_tuned_time_equals_selected_algorithm_exactly(self):
        """Selection is zero simulated cost: a tuned run must be
        bit-identical in time and results to the selected algorithm run
        directly."""
        rows = [{"kind": k, "nodes": 1, "ipn": 8, "band": b,
                 "algorithm": "shmwin"}
                for k in ("barrier", "reduce", "broadcast")
                for b in ("small", "medium", "large")]
        install_table(rows)
        tuned = run_small(_collective_mix, images=8, ipn=8,
                          config=UHCAF_TUNED)
        direct = run_small(_collective_mix, images=8, ipn=8, config=SHMWIN)
        assert tuned.time == direct.time
        assert tuned.results == direct.results

    def test_fallback_to_two_level_defaults(self):
        """No table installed: tuned == the paper's two-level stack."""
        install_table(None)
        tuned = run_small(_collective_mix, images=8, ipn=4,
                          config=UHCAF_TUNED)
        ref = run_small(_collective_mix, images=8, ipn=4,
                        config=UHCAF_2LEVEL.with_(macro_events=False))
        assert tuned.time == ref.time
        assert tuned.results == ref.results
        assert tuned.world.initial_shared.tuned_selections == {
            ("barrier", "small"): "tdlb",
            ("reduce", "small"): "two-level",
            ("broadcast", "small"): "two-level",
        }

    def test_working_directory_and_environment_are_not_read(
            self, tmp_path, monkeypatch):
        """A TOURNAMENT.json in the working directory, or one named by
        an environment variable, does not change what tuned picks: two
        broadcasts from images 2 then 8 at 8 images x 4 per node finish
        on the two-level defaults even where such a table routes them
        to shmwin."""
        table = tmp_path / "TOURNAMENT.json"
        table.write_text(json.dumps({
            "schema": CrossoverTable.SCHEMA,
            "winners": [{"kind": "broadcast", "nodes": 2, "ipn": 4,
                         "band": "small", "algorithm": "shmwin"}],
        }))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_TOURNAMENT", str(table))
        install_table(None)

        def main(ctx):
            out = []
            for src in (2, 8):
                out.append((yield from ctx.co_broadcast(
                    float(ctx.this_image()), source_image=src)))
            return out

        result = run_small(main, images=8, ipn=4, config=UHCAF_TUNED)
        assert result.world.initial_shared.tuned_selections == {
            ("broadcast", "small"): "two-level"}
        assert all(out == [2.0, 8.0] for out in result.results)

    def test_stale_table_entry_falls_back(self):
        install_table([{"kind": "barrier", "nodes": 1, "ipn": 8,
                        "band": "small", "algorithm": "gone-algorithm"}])
        result = run_small(_collective_mix, images=8, ipn=8,
                           config=UHCAF_TUNED)
        sel = result.world.initial_shared.tuned_selections
        assert sel[("barrier", "small")] == "tdlb"

    def test_bands_and_shape_key(self):
        assert payload_band(8) == "small"
        assert payload_band(255) == "small"
        assert payload_band(256) == "medium"
        assert payload_band(16 * 1024 - 1) == "medium"
        assert payload_band(16 * 1024) == "large"
        assert shape_key(8, 8) == (1, 8)
        assert shape_key(8, 4) == (2, 4)
        assert shape_key(3, 2) == (2, 2)
        assert shape_key(4, 1) == (4, 1)

    def test_from_json_validates_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9", "winners": []}))
        with pytest.raises(ValueError, match="expected schema"):
            CrossoverTable.from_json(path)


# ----------------------------------------------------------------------
class TestTournamentCLI:
    def test_quick_grid_emits_table_and_gates(self, tmp_path, capsys):
        out_json = tmp_path / "TOURNAMENT.json"
        rc = bench_main([
            "tournament", "--shapes", "1node", "--payloads", "small",
            "--iters", "2", "--tournament-json", str(out_json),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "crossover table" in text
        assert "tuned dispatch:" in text
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "repro.bench/tournament/v1"
        swept = {(r["kind"], r["algorithm"]) for r in doc["grid"]}
        for kind, table in (("barrier", registry.BARRIERS),
                            ("reduce", registry.REDUCTIONS),
                            ("broadcast", registry.BROADCASTS)):
            for name in table:
                if name != "tuned":
                    assert (kind, name) in swept
        assert doc["tuned"]["speedup_vs_best_fixed"] >= 1.0 - 1e-9
        assert doc["tuned"]["speedup_vs_default"] >= 1.0 - 1e-9
        # the artifact round-trips into the dispatch table
        table = CrossoverTable.from_json(out_json)
        assert len(table) == len(doc["winners"]) > 0
