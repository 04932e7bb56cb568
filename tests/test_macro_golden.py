"""Golden-trace matrix for macro-events (:mod:`repro.collectives.macro`).

Macro-on and macro-off runs must agree on final coarray states, final
simulated time, and fabric traffic across every conformance machine
shape — for barriers *and* for the data-carrying reduce/broadcast
windows; macro mode must auto-disable whenever an observer (HB monitor,
trace, tiebreak seed, fault schedule) is attached; and the one documented
exactness boundary — a zero-compute hierarchical barrier loop, where a
committed window's virtual release ladder cannot feel the next window's
fine-grained traffic — must be *detected* (``inexact``/``"overlap"``)
rather than silently absorbed.  Flat tight collective loops are the
chained-window case: every window must collapse from a single analysis
(the extreme-scale sweep's whole premise), which the sustained-collapse
tests pin with exact replay counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultSchedule, ImageFailure, Stat
from repro.machine import build_machine, paper_cluster
from repro.runtime.config import UHCAF_2LEVEL
from repro.runtime.program import run_spmd
from repro.sim.engine import Engine
from repro.verify import HBMonitor
from repro.verify.conformance import SHAPES

ALL_SHAPES = sorted(SHAPES)

#: per-iteration compute larger than any shape's release-ladder span, so
#: re-arrivals land after the previous window's last virtual delivery —
#: inside the exactness envelope (see docs/simulation.md)
SEPARATING_FLOPS = 3000.0

#: the data windows (reduce fold/unfold, broadcast tree) span much more
#: than a barrier's release ladder, so their separated loops need a
#: proportionally larger compute block between windows
DATA_SEPARATING_FLOPS = 500000.0


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
def _barrier_once(ctx):
    yield from ctx.sync_all()
    return ctx.now


def _barrier_loop(ctx, iters):
    for _ in range(iters):
        yield from ctx.sync_all()
    return ctx.now


def _separated_loop(ctx, iters):
    for _ in range(iters):
        yield ctx.compute_cost(SEPARATING_FLOPS)
        yield from ctx.sync_all()
    return ctx.now


def _ring_stencil(ctx, iters):
    """Puts between compute-separated barriers: real coarray state.

    Compute brackets the put on both sides: ``allocate`` ends in an
    internal barrier, so work must separate its window from the first
    put, and the put's own fabric traffic from the next window.
    """
    me = ctx.this_image()
    n = ctx.num_images()
    co = yield from ctx.allocate("gold", (4,))
    for it in range(iters):
        yield ctx.compute_cost(SEPARATING_FLOPS)
        target = me % n + 1
        yield from ctx.put(co, target, float(me * 100 + it), index=it % 4)
        yield ctx.compute_cost(SEPARATING_FLOPS)
        yield from ctx.sync_all()
    return ctx.local(co).tolist()


def _sep_reduce(ctx, iters):
    me = float(ctx.this_image())
    acc = me
    for _ in range(iters):
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        acc = yield from ctx.co_sum(acc + me)
    return acc


def _tight_reduce(ctx, iters):
    acc = float(ctx.this_image())
    for _ in range(iters):
        acc = yield from ctx.co_sum(acc * 0.5)
    return acc


def _tight_reduce_arr(ctx, iters):
    acc = np.arange(4, dtype=float) + ctx.this_image()
    for _ in range(iters):
        acc = yield from ctx.co_max(acc)
        acc = acc - 0.25
    return acc.tolist()


def _sep_bcast(ctx, iters):
    me = ctx.this_image()
    out = []
    for it in range(iters):
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        v = yield from ctx.co_broadcast(
            float(me * 10 + it), source_image=1 + it % ctx.num_images())
        out.append(v)
    return out


def _tight_bcast(ctx, iters):
    me = ctx.this_image()
    out = []
    for it in range(iters):
        v = yield from ctx.co_broadcast(float(me + it), source_image=1)
        out.append(v)
    return out


def _mixed_collectives(ctx, iters):
    me = ctx.this_image()
    acc = float(me)
    for it in range(iters):
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        acc = yield from ctx.co_sum(acc)
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        acc = yield from ctx.co_broadcast(acc + it, source_image=1)
    return acc


def _tight_mixed_flat(ctx, iters):
    acc = float(ctx.this_image())
    for _ in range(iters):
        acc = yield from ctx.co_sum(acc * 0.5)
        acc = yield from ctx.co_min(acc + 1.0)
    return acc


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _run(shape_name, main, args=(), macro=None, tiebreak_seed=None, **kw):
    shape = SHAPES[shape_name]
    engine = Engine(tiebreak_seed=tiebreak_seed)
    machine = build_machine(engine, shape.spec, shape.num_images,
                            images_per_node=shape.images_per_node)
    return run_spmd(main, machine=machine, args=args,
                    macro_events=macro, **kw)


def _run_flat(num_images, main, args=(), macro=None, config=None, **kw):
    """A flat team (one image per node) of any size — the shape where
    chained windows sustain collapse; not limited to conformance SHAPES."""
    engine = Engine()
    machine = build_machine(engine, paper_cluster(num_images), num_images,
                            images_per_node=1)
    if config is not None:
        kw["config"] = config
    return run_spmd(main, machine=machine, args=args,
                    macro_events=macro, **kw)


def _assert_golden(on, off):
    assert on.time == off.time  # bit-identical, not approx
    assert on.results == off.results
    assert on.traffic == off.traffic


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
class TestGoldenMatrix:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_single_barrier_identical(self, shape):
        on = _run(shape, _barrier_once, macro=True)
        off = _run(shape, _barrier_once, macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == 1
        assert not on.world.macro.inexact
        assert off.world.macro.replays == 0

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_compute_separated_loop_identical(self, shape):
        on = _run(shape, _separated_loop, args=(4,), macro=True)
        off = _run(shape, _separated_loop, args=(4,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays >= 1
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_coarray_states_identical(self, shape):
        on = _run(shape, _ring_stencil, args=(5,), macro=True)
        off = _run(shape, _ring_stencil, args=(5,), macro=False)
        _assert_golden(on, off)
        assert not on.world.macro.inexact

    def test_flat_tight_loop_sustains_collapse(self):
        # Flat teams exit every window at one instant: collapse must
        # sustain across the whole loop and stay exact with no compute
        # separating the barriers at all.
        iters = 6
        on = _run("flat4", _barrier_loop, args=(iters,), macro=True)
        off = _run("flat4", _barrier_loop, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact
        assert on.world.macro.disabled_reason is None


class TestExactnessBoundary:
    def test_tight_hierarchical_loop_is_detected(self):
        # Zero-compute loop on a hierarchical shape: the first window
        # commits, the re-arrival traffic overlaps its virtual release
        # ladder, and the coordinator must notice (post-commit grant
        # audit), flag the run inexact, and disable itself.
        on = _run("2x4", _barrier_loop, args=(6,), macro=True)
        off = _run("2x4", _barrier_loop, args=(6,), macro=False)
        m = on.world.macro
        # semantic state never drifts — only timestamps can
        assert on.results is not None
        assert m.replays <= 1  # at most the first window was bet on
        if on.time != off.time:
            assert m.inexact
            assert m.disabled_reason == "overlap"

    def test_lost_bet_disables_for_rest_of_run(self):
        def loop_then_separated(ctx, iters):
            for _ in range(iters):
                yield from ctx.sync_all()
            for _ in range(2):
                yield ctx.compute_cost(SEPARATING_FLOPS)
                yield from ctx.sync_all()
            return ctx.now

        on = _run("2x4", loop_then_separated, args=(4,), macro=True)
        m = on.world.macro
        if m.inexact:
            # once the bet is lost nothing replays again
            assert m.disabled_reason is not None
            assert m.replays <= 1


class TestAutoDisable:
    def test_monitor_disables(self):
        on = _run("2x4", _barrier_once, macro=True, monitor=HBMonitor())
        assert on.world.macro.replays == 0

    def test_trace_disables(self):
        on = _run("2x4", _barrier_once, macro=True, trace=True)
        assert on.world.macro.replays == 0
        assert on.trace  # the trace actually recorded fine-grained ops

    def test_tiebreak_seed_disables(self):
        on = _run("2x4", _barrier_once, macro=True, tiebreak_seed=3)
        assert on.world.macro.replays == 0

    def test_faults_disable_and_match_fine_grained(self):
        def survivor_loop(ctx, iters):
            st = Stat()
            for _ in range(iters):
                yield ctx.compute_cost(SEPARATING_FLOPS)
                yield from ctx.sync_all(stat=st)
            return (ctx.now, st.code, tuple(st.failed_indices))

        sched = FaultSchedule(failures=(ImageFailure(3, 20e-6),))
        on = _run("2x4", survivor_loop, args=(30,), macro=True,
                  faults=sched)
        off = _run("2x4", survivor_loop, args=(30,), macro=False,
                   faults=sched)
        assert on.world.macro.replays == 0
        assert on.time == off.time
        assert on.results == off.results

    def test_config_flag_disables(self):
        on = _run("2x4", _barrier_once, macro=False)
        assert on.world.macro.replays == 0
        assert on.world.macro.fine_pins == 0  # never even consulted

    def test_monitor_disables_data_windows(self):
        # The data-carrying kinds go through the same engage gate: an
        # attached observer must pin reduce/broadcast windows fine too.
        on = _run("2x4", _sep_reduce, args=(3,), macro=True,
                  monitor=HBMonitor())
        assert on.world.macro.replays == 0


# ----------------------------------------------------------------------
# Reduce / broadcast windows (the macro-collectives generalization)
# ----------------------------------------------------------------------
class TestGoldenMatrixCollectives:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_separated_reduce_identical(self, shape):
        on = _run(shape, _sep_reduce, args=(4,), macro=True)
        off = _run(shape, _sep_reduce, args=(4,), macro=False)
        _assert_golden(on, off)
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_separated_broadcast_identical(self, shape):
        on = _run(shape, _sep_bcast, args=(4,), macro=True)
        off = _run(shape, _sep_bcast, args=(4,), macro=False)
        _assert_golden(on, off)
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_mixed_collectives_identical(self, shape):
        on = _run(shape, _mixed_collectives, args=(3,), macro=True)
        off = _run(shape, _mixed_collectives, args=(3,), macro=False)
        _assert_golden(on, off)
        assert not on.world.macro.inexact


class TestSustainedCollapseFlat:
    def test_tight_reduce_pow2(self):
        iters = 6
        on = _run_flat(4, _tight_reduce, args=(iters,), macro=True)
        off = _run_flat(4, _tight_reduce, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact
        assert on.world.macro.disabled_reason is None

    @pytest.mark.parametrize("num_images", [6, 12, 25])
    def test_tight_reduce_non_pow2(self, num_images):
        # Non-power-of-two teams stagger the two-level fold/unfold exit
        # instants; chained windows must still collapse every iteration
        # — the extreme-scale acceptance scenario in miniature.
        iters = 5
        on = _run_flat(num_images, _tight_reduce, args=(iters,), macro=True)
        off = _run_flat(num_images, _tight_reduce, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact

    def test_tight_reduce_array_payload(self):
        iters = 4
        on = _run_flat(12, _tight_reduce_arr, args=(iters,), macro=True)
        off = _run_flat(12, _tight_reduce_arr, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters

    def test_tight_mixed_reduce_kinds(self):
        # co_sum and co_min alternating: both windows join the same
        # macro kind and every one must replay.
        iters = 4
        on = _run_flat(12, _tight_mixed_flat, args=(iters,), macro=True)
        off = _run_flat(12, _tight_mixed_flat, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == 2 * iters
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("num_images", [8, 12])
    def test_tight_reduce_recursive_doubling(self, num_images):
        rd = UHCAF_2LEVEL.with_(name="rd", reduce="recursive-doubling")
        iters = 5
        on = _run_flat(num_images, _tight_reduce, args=(iters,),
                       macro=True, config=rd)
        off = _run_flat(num_images, _tight_reduce, args=(iters,),
                        macro=False, config=rd)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact


def _credit_then_fine(ctx, macro_iters, fine_iters, seen):
    """Macro TDLB windows, then a ``put_nb`` (sticky async disable), then
    fine-grained barriers that read the dissemination flags the macro
    windows only credited."""
    me = ctx.this_image()
    for _ in range(macro_iters):
        yield from ctx.sync_all()
    co = yield from ctx.allocate("credit", (1,))  # one more macro window
    shared = ctx.current_team.shared
    if me == 1:
        seen["cells_before_fine"] = len(
            shared._diss_flags.get("tdlb-leaders", {}))
        seen["shared"] = shared
    handle = yield from ctx.put_nb(co, me % ctx.num_images() + 1, float(me))
    yield from ctx.wait_rma(handle)
    for _ in range(fine_iters):
        yield from ctx.sync_all()
    return ctx.now, ctx.local(co).tolist()


class TestDisseminationCredit:
    def test_credited_flags_feed_later_fine_barriers(self):
        n, macro_iters, fine_iters = 1000, 2, 1
        seen_on: dict = {}
        seen_off: dict = {}
        on = _run_flat(n, _credit_then_fine, macro=True,
                       args=(macro_iters, fine_iters, seen_on))
        off = _run_flat(n, _credit_then_fine, macro=False,
                        args=(macro_iters, fine_iters, seen_off))
        _assert_golden(on, off)
        m = on.world.macro
        assert m.replays == macro_iters + 1
        assert m.disabled_reason == "async" and not m.inexact
        # macro windows never materialized a leader flag ...
        assert seen_on["cells_before_fine"] == 0
        assert seen_off["cells_before_fine"] > 0

        # ... yet every flag ends where the fine-grained run leaves it
        def flags(seen):
            cells = seen["shared"]._diss_flags["tdlb-leaders"]
            return {key: cell.value for key, cell in cells.items()}

        total = macro_iters + 1 + fine_iters
        assert flags(seen_on) == flags(seen_off)
        assert set(flags(seen_on).values()) == {total}


class TestCollectiveBoundaries:
    def test_tight_broadcast_chain_stays_semantically_exact(self):
        # Chained broadcast windows open under the previous window's
        # staggered wakes, which a broadcast cannot commit — window 1
        # collapses, the rest pin fine (or the audit flags the run).
        # Results and final time must match either way.
        on = _run_flat(8, _tight_bcast, args=(4,), macro=True)
        off = _run_flat(8, _tight_bcast, args=(4,), macro=False)
        assert on.results == off.results
        assert on.time == off.time
        assert on.world.macro.replays >= 1

    def test_tight_hierarchical_reduce_boundary(self):
        # Zero-compute reduce loop on a hierarchical shape: same
        # exactness boundary as the barrier case — semantic state never
        # drifts, and any timestamp drift must be flagged.
        on = _run("2x4", _tight_reduce, args=(5,), macro=True)
        off = _run("2x4", _tight_reduce, args=(5,), macro=False)
        assert on.results == off.results
        if on.time != off.time:
            assert on.world.macro.inexact


class TestExtremeScaleSweepPath:
    def test_registry_capability_map(self):
        from repro.bench.xscale import assert_macro_capable
        from repro.collectives.registry import macro_kind
        kinds = assert_macro_capable(UHCAF_2LEVEL)
        assert kinds == {"barrier": "tdlb", "reduce": "reduce-2l",
                         "broadcast": "bcast-2l"}
        assert macro_kind("reduce", "linear-flat") is None
        from repro.runtime.config import UHCAF_1LEVEL
        with pytest.raises(ValueError, match="not macro-capable"):
            assert_macro_capable(UHCAF_1LEVEL)

    def test_duplicate_rung_is_byte_identical(self):
        # The sweep path must be deterministic: the same rung run twice
        # yields byte-identical rows (wall-clock fields aside) and an
        # identical rendered table.
        from repro.bench.xscale import xscale_sweep

        def strip(rows):
            return [{k: v for k, v in row.items()
                     if not k.startswith("wall_")} for row in rows]

        table_a, rows_a = xscale_sweep([24], ab_max=10_000)
        table_b, rows_b = xscale_sweep([24], ab_max=10_000)
        assert strip(rows_a) == strip(rows_b)
        assert repr(strip(rows_a)) == repr(strip(rows_b))  # same bits
        assert table_a.render() == table_b.render()
        assert all(row["exactness"] == "exact" for row in rows_a)

    def test_ab_bound_skips_fine_leg(self):
        from repro.bench.xscale import xscale_sweep
        _table, rows = xscale_sweep([16, 32], ab_max=16,
                                    shapes=["reduce"])
        by_n = {row["images"]: row for row in rows}
        assert by_n[16]["exactness"] == "exact"
        assert by_n[32]["exactness"] == "skipped"
        assert "events_fine" not in by_n[32]
