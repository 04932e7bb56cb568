"""Golden-trace matrix for macro-events (:mod:`repro.collectives.macro`).

Macro-on and macro-off runs must agree on final coarray states, final
simulated time, and fabric traffic across every conformance machine
shape — for barriers *and* for the data-carrying reduce/broadcast
windows.  These programs use the initial team, which opens windows
only where every image owns its node; on every other shape it never
opens one, which makes the run the fine-grained run, including the
paper's E2–E4 cells at 8 images per node.  Sub-teams that are flat
within themselves do replay on such machines: HPL's column teams at
64(8) replay their pivot searches exactly, and an outsider that sends
on a member's node mid-window is caught.  Macro mode must auto-disable whenever an observer (HB monitor,
trace, tiebreak seed, fault schedule) is attached, beside a control run
that does replay; and a flat program that really loses its commit bet —
a blocking ``get`` landing among a committed window's virtual NIC holds
— must be *detected* (``inexact``/``"overlap"``) and replay nothing
after.  Flat tight collective loops are the chained-window case: every
window must collapse from a single analysis (the extreme-scale sweep's
whole premise), which the sustained-collapse tests pin with exact
replay counts.  The stride-swept broadcast tree is checked against the
fine path on every flat team of 2 to 40 images, the linear barrier's
replay on flat teams of 2 to 40, 64 and 100 images, and a parked gather
demoted when the engine drains must leave the same deadlock report as a
macro-off run.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.faults import FaultSchedule, ImageFailure, Stat
from repro.hpl.driver import hpl_main
from repro.bench.microbench import (
    barrier_benchmark,
    broadcast_benchmark,
    reduce_benchmark,
)
from repro.machine import build_machine, paper_cluster
from repro.runtime.config import GASNET_IB_DISSEMINATION, UHCAF_2LEVEL
from repro.runtime.program import run_spmd
from repro.sim import DeadlockError
from repro.sim.engine import Engine
from repro.verify import HBMonitor, fingerprint
from repro.verify.conformance import SHAPES

ALL_SHAPES = sorted(SHAPES)

#: the conformance shape whose windows replay: macro-events engage only
#: when every image owns its node
FLAT = "flat4"

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


def _observed(result):
    """The run's fingerprint as macro on and off must both give it (a
    replayed window spends fewer engine events)."""
    return fingerprint(result).without_events()


def _assert_replays(shape, macro, flat_replays):
    """Flat shapes replay (``flat_replays`` checks the count); on a shape
    with several images on a node the team never opens a window."""
    if SHAPES[shape].images_per_node == 1:
        assert flat_replays(macro.replays)
    else:
        assert macro.replays == 0 and macro.fine_pins == 0


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
class TestGoldenMatrix:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_single_barrier_identical(self, shape):
        on = _run(shape, _barrier_once, macro=True)
        off = _run(shape, _barrier_once, macro=False)
        assert _observed(on) == _observed(off)
        _assert_replays(shape, on.world.macro, lambda r: r == 1)
        assert not on.world.macro.inexact
        assert off.world.macro.replays == 0

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_compute_separated_loop_identical(self, shape):
        on = _run(shape, _separated_loop, args=(4,), macro=True)
        off = _run(shape, _separated_loop, args=(4,), macro=False)
        assert _observed(on) == _observed(off)
        _assert_replays(shape, on.world.macro, lambda r: r >= 1)
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_coarray_states_identical(self, shape):
        on = _run(shape, _ring_stencil, args=(5,), macro=True)
        off = _run(shape, _ring_stencil, args=(5,), macro=False)
        assert _observed(on) == _observed(off)
        assert not on.world.macro.inexact

    def test_flat_tight_loop_sustains_collapse(self):
        # Flat teams exit every window at one instant: collapse must
        # sustain across the whole loop and stay exact with no compute
        # separating the barriers at all.
        iters = 6
        on = _run("flat4", _barrier_loop, args=(iters,), macro=True)
        off = _run("flat4", _barrier_loop, args=(iters,), macro=False)
        assert _observed(on) == _observed(off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact
        assert on.world.macro.disabled_reason is None


def _get_after_reduce(ctx):
    """A blocking ``get`` into an image whose reduce window has not
    delivered yet: the reply leg holds the target's NIC, among the
    window's virtual holds."""
    me = ctx.this_image()
    n = ctx.num_images()
    co = yield from ctx.allocate("bet", (1,))
    ctx.local(co)[0] = float(me)
    yield ctx.compute_cost(SEPARATING_FLOPS)
    acc = yield from ctx.co_sum(float(me))
    got = None
    if me <= 3:
        got = yield from ctx.get(co, n)
    for _ in range(3):
        yield ctx.compute_cost(SEPARATING_FLOPS)
        yield from ctx.sync_all()
    return acc, got


class TestExactnessBoundary:
    def test_tight_hierarchical_loop_is_detected(self):
        # Zero-compute loop on a hierarchical shape: a committed window's
        # virtual release ladder would meet the re-arrival traffic, so no
        # window replays and the run is the fine-grained run.
        on = _run("2x4", _barrier_loop, args=(6,), macro=True)
        off = _run("2x4", _barrier_loop, args=(6,), macro=False)
        m = on.world.macro
        assert _observed(on) == _observed(off)
        assert m.replays == 0 and m.fine_pins == 0

    def test_lost_bet_disables_for_rest_of_run(self):
        # 13 flat images: allocate's barrier and the co_sum replay, then
        # images 1-3 get from image 13 inside the co_sum window's virtual
        # delivery span.  The last wake's audit sees the foreign grants.
        on = _run_flat(13, _get_after_reduce, macro=True)
        m = on.world.macro
        assert m.inexact
        assert m.disabled_reason == "overlap"
        # once the bet is lost nothing replays again
        assert m.replays == 2


def _hpl(ctx):
    return (yield from hpl_main(ctx, 2048, 128))


def _column_sum_after_sync_all(ctx):
    """A full-team ``sync_all`` (several images per node: that team never
    opens a window), then column 1's team reduces while every other
    image waits in the next ``sync_all``."""
    me = ctx.this_image()
    col = yield from ctx.form_team((me - 1) % 8 + 1)
    yield from ctx.sync_all()
    acc = None
    if (me - 1) % 8 == 0:
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        acc = yield from ctx.co_sum(float(me), team=col)
    yield from ctx.sync_all()
    return acc, ctx.now


def _swap_partner_wakes_outsider(ctx):
    """Column 1 of a 2 x 8 grid searches pivots while the other columns
    wait.  Mid-panel, its member on node 0 meets image 10, an outsider on
    the other member's node, in ``sync images``; image 10 then puts
    across the network, on the NIC the other member's window holds."""
    me = ctx.this_image()
    co = yield from ctx.allocate("bet", (1,))
    col = yield from ctx.form_team((me - 1) % 8 + 1)
    out = []
    if (me - 1) % 8 == 0:
        for it in range(4):
            yield ctx.compute_cost(5e4 if me == 9 else 1e5)
            if me == 1 and it == 1:
                yield from ctx.sync_images([10])
            out.append((yield from ctx.co_reduce(
                (float(it), me), op="maxloc", team=col)))
            out.append(ctx.now)
    elif me == 10:
        yield from ctx.sync_images([1])
        yield from ctx.put(co, 2, float(me))
    yield from ctx.sync_all()
    out.append(ctx.now)
    return out


class TestSubTeamWindows:
    """Windows on teams that are flat within themselves, on machines with
    several images per node."""

    def test_hpl_pivot_search_replays_exactly(self):
        # HPL at 64(8): every column team holds one image per node.  The
        # pivot windows whose first arrival sees another column's DGEMM
        # compute pending pin fine; the rest replay.
        on, off = (run_spmd(_hpl, num_images=64, images_per_node=8,
                            macro_events=macro) for macro in (True, False))
        assert _observed(on) == _observed(off)
        m = on.world.macro
        assert (m.replays, m.fine_pins) == (1572, 476)
        assert m.replays_by_kind == {"reduce-2l": 1572}
        assert not m.inexact and m.demotions == 0

    def test_flat_subteam_after_full_team_sync_all(self):
        on, off = (run_spmd(_column_sum_after_sync_all, num_images=16,
                            images_per_node=8, macro_events=macro)
                   for macro in (True, False))
        assert _observed(on) == _observed(off)
        m = on.world.macro
        assert m.replays == 1 and m.replays_by_kind == {"reduce-2l": 1}
        assert m.disabled_reason is None and not m.inexact

    def test_outsider_on_a_members_node_loses_the_bet(self):
        on = run_spmd(_swap_partner_wakes_outsider, num_images=16,
                      images_per_node=8, macro_events=True)
        m = on.world.macro
        assert m.inexact and m.disabled_reason == "overlap"
        # the first two pivot windows replayed; nothing after the loss
        assert m.replays == 2


class TestAutoDisable:
    """Each observer pins ``flat4`` fine, beside a control run without
    it that replays."""

    def test_monitor_disables(self):
        control = _run(FLAT, _barrier_once, macro=True)
        on = _run(FLAT, _barrier_once, macro=True, monitor=HBMonitor())
        assert control.world.macro.replays == 1
        assert on.world.macro.replays == 0

    def test_trace_disables(self):
        control = _run(FLAT, _barrier_once, macro=True)
        on = _run(FLAT, _barrier_once, macro=True, trace=True)
        assert control.world.macro.replays == 1
        assert on.world.macro.replays == 0
        assert on.trace  # the trace actually recorded fine-grained ops

    def test_tiebreak_seed_disables(self):
        control = _run(FLAT, _barrier_once, macro=True)
        on = _run(FLAT, _barrier_once, macro=True, tiebreak_seed=3)
        assert control.world.macro.replays == 1
        assert on.world.macro.replays == 0

    def test_faults_disable_and_match_fine_grained(self):
        def survivor_loop(ctx, iters):
            st = Stat()
            for _ in range(iters):
                yield ctx.compute_cost(SEPARATING_FLOPS)
                yield from ctx.sync_all(stat=st)
            return (ctx.now, st.code, tuple(st.failed_indices))

        sched = FaultSchedule(failures=(ImageFailure(3, 20e-6),))
        control = _run(FLAT, survivor_loop, args=(30,), macro=True)
        on = _run(FLAT, survivor_loop, args=(30,), macro=True,
                  faults=sched)
        off = _run(FLAT, survivor_loop, args=(30,), macro=False,
                   faults=sched)
        assert control.world.macro.replays == 30
        assert on.world.macro.replays == 0
        assert _observed(on) == _observed(off)

    def test_config_flag_disables(self):
        control = _run(FLAT, _barrier_once, macro=True)
        on = _run(FLAT, _barrier_once, macro=False)
        assert control.world.macro.replays == 1
        assert on.world.macro.replays == 0
        assert on.world.macro.fine_pins == 0  # never even consulted

    def test_monitor_disables_data_windows(self):
        # The data-carrying kinds go through the same engage gate: an
        # attached observer must pin reduce/broadcast windows fine too.
        control = _run(FLAT, _sep_reduce, args=(3,), macro=True)
        on = _run(FLAT, _sep_reduce, args=(3,), macro=True,
                  monitor=HBMonitor())
        assert control.world.macro.replays == 3
        assert on.world.macro.replays == 0


# ----------------------------------------------------------------------
# Reduce / broadcast windows (the macro-collectives generalization)
# ----------------------------------------------------------------------
class TestGoldenMatrixCollectives:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_separated_reduce_identical(self, shape):
        on = _run(shape, _sep_reduce, args=(4,), macro=True)
        off = _run(shape, _sep_reduce, args=(4,), macro=False)
        assert _observed(on) == _observed(off)
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_separated_broadcast_identical(self, shape):
        on = _run(shape, _sep_bcast, args=(4,), macro=True)
        off = _run(shape, _sep_bcast, args=(4,), macro=False)
        assert _observed(on) == _observed(off)
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_mixed_collectives_identical(self, shape):
        on = _run(shape, _mixed_collectives, args=(3,), macro=True)
        off = _run(shape, _mixed_collectives, args=(3,), macro=False)
        assert _observed(on) == _observed(off)
        assert not on.world.macro.inexact


class TestSustainedCollapseFlat:
    def test_tight_reduce_pow2(self):
        iters = 6
        on = _run_flat(4, _tight_reduce, args=(iters,), macro=True)
        off = _run_flat(4, _tight_reduce, args=(iters,), macro=False)
        assert _observed(on) == _observed(off)
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
        assert _observed(on) == _observed(off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact

    def test_tight_reduce_array_payload(self):
        iters = 4
        on = _run_flat(12, _tight_reduce_arr, args=(iters,), macro=True)
        off = _run_flat(12, _tight_reduce_arr, args=(iters,), macro=False)
        assert _observed(on) == _observed(off)
        assert on.world.macro.replays == iters

    def test_tight_mixed_reduce_kinds(self):
        # co_sum and co_min alternating: both windows join the same
        # macro kind and every one must replay.
        iters = 4
        on = _run_flat(12, _tight_mixed_flat, args=(iters,), macro=True)
        off = _run_flat(12, _tight_mixed_flat, args=(iters,), macro=False)
        assert _observed(on) == _observed(off)
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
        assert _observed(on) == _observed(off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact


class TestEngineEventsCollapse:
    # Fine -> macro engine events at 32/32/64 images: 1,952 -> 36,
    # 2,592 -> 36 and 253 -> 75; at 256/256/512: 30,976 -> 261,
    # 33,024 -> 260 and 2,045 -> 530.  A broadcast window still costs
    # one registration event per member, so it only has to use fewer.
    @pytest.mark.parametrize("main, num_images, iters, min_ratio", [
        pytest.param(_barrier_loop, 32, 4, 5, id="barrier-32"),
        pytest.param(_tight_reduce, 32, 4, 5, id="reduce-32"),
        pytest.param(_tight_bcast, 64, 1, 1, id="bcast-64"),
        pytest.param(_barrier_loop, 256, 5, 5, id="barrier-256"),
        pytest.param(_tight_reduce, 256, 4, 5, id="reduce-256"),
        pytest.param(_tight_bcast, 512, 1, 1, id="bcast-512"),
    ])
    def test_same_run_in_fewer_engine_events(self, main, num_images, iters,
                                             min_ratio):
        on = _run_flat(num_images, main, args=(iters,), macro=True)
        off = _run_flat(num_images, main, args=(iters,), macro=False)
        assert _observed(on) == _observed(off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact
        fine = off.world.engine.events_processed
        assert fine > min_ratio * on.world.engine.events_processed


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
        assert _observed(on) == _observed(off)
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
        assert _observed(on) == _observed(off)
        assert on.world.macro.replays >= 1

    def test_tight_hierarchical_reduce_boundary(self):
        # Zero-compute reduce loop on a hierarchical shape: as in the
        # barrier case nothing replays, so times match exactly.
        on = _run("2x4", _tight_reduce, args=(5,), macro=True)
        off = _run("2x4", _tight_reduce, args=(5,), macro=False)
        assert _observed(on) == _observed(off)
        assert on.world.macro.replays == 0


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

    def test_one_extra_fine_grant_reads_divergent(self, monkeypatch):
        # The verdict compares more than time and results: a replay that
        # mirrored one grant too few (here: a fine leg with one more)
        # must fail the rung even though every image exits on time.
        import repro.bench.xscale as xscale

        real_run_once = xscale._run_once

        def run_once(main, num_images, iters, config, macro):
            events, wall, result = real_run_once(main, num_images, iters,
                                                 config, macro)
            if not macro:
                result.world.engine.grants += 1
            return events, wall, result

        _table, rows = xscale.xscale_sweep([16], shapes=["barrier"])
        assert rows[0]["exactness"] == "exact"
        monkeypatch.setattr(xscale, "_run_once", run_once)
        _table, rows = xscale.xscale_sweep([16], shapes=["barrier"])
        assert rows[0]["exactness"] == "DIVERGENT"


# ----------------------------------------------------------------------
# The binomial broadcast tree, swept one stride per round
# ----------------------------------------------------------------------
def _bcast_from(ctx, source):
    value = np.array([7 * ctx.this_image() - 3], dtype=np.int64)
    return (yield from ctx.co_broadcast(value, source_image=source))


def _tree_cases():
    flat = [(n, 1, source) for n in range(2, 41)
            for source in sorted({1, (n + 1) // 2, n})]
    # hierarchical: sources that are not their node's leader, and a
    # single-node team (one leader, no tree at all); none replays
    hier = [(24, 8, 2), (24, 8, 12), (24, 8, 24), (13, 3, 2), (13, 3, 13),
            (8, 8, 1), (8, 8, 5)]
    return flat + hier


class TestSweptBroadcastTree:
    @pytest.mark.parametrize("images,ipn,source", _tree_cases())
    def test_replay_matches_fine_grained(self, images, ipn, source):
        runs = {
            macro: run_spmd(_bcast_from, num_images=images,
                            images_per_node=ipn, macro_events=macro,
                            args=(source,))
            for macro in (True, False)
        }
        on, off = runs[True], runs[False]
        # the tree really replayed, on flat teams only
        assert on.world.macro.replays == (1 if ipn == 1 else 0)
        assert not on.world.macro.inexact
        assert _observed(on) == _observed(off)


# ----------------------------------------------------------------------
# The linear barrier: arrivals as one round, releases one send at a time
# ----------------------------------------------------------------------
LINEAR_CONFIGS = {
    cfg.name: cfg.with_(name=f"{cfg.name}-linear", barrier="linear")
    for cfg in (UHCAF_2LEVEL, GASNET_IB_DISSEMINATION)
}


def _uniform_loop(ctx):
    for _ in range(3):
        yield ctx.compute_cost(SEPARATING_FLOPS)
        yield from ctx.sync_all()
    return ctx.now


def _per_image_loop(ctx):
    for _ in range(3):
        yield ctx.compute_cost(SEPARATING_FLOPS * (1 + ctx.this_image() % 3))
        yield from ctx.sync_all()
    return ctx.now


def _tight_four(ctx):
    return (yield from _barrier_loop(ctx, 4))


class TestLinearBarrierReplay:
    @pytest.mark.parametrize("config", sorted(LINEAR_CONFIGS))
    @pytest.mark.parametrize("images", [*range(2, 41), 64, 100])
    def test_replay_matches_fine_grained(self, images, config):
        cfg = LINEAR_CONFIGS[config]
        for main in (_barrier_once, _tight_four, _uniform_loop,
                     _per_image_loop):
            on = _run_flat(images, main, macro=True, config=cfg)
            off = _run_flat(images, main, macro=False, config=cfg)
            assert _observed(on) == _observed(off), main.__name__
            if main is _barrier_once:
                assert on.world.macro.replays_by_kind == {"linear": 1}


# ----------------------------------------------------------------------
# The paper's E2-E4 cells at 8 images per node
# ----------------------------------------------------------------------
class TestPaperCells:
    @pytest.mark.parametrize("bench", [barrier_benchmark, reduce_benchmark,
                                       broadcast_benchmark],
                             ids=["barrier", "reduce", "broadcast"])
    @pytest.mark.parametrize("images", [16, 64])
    def test_macro_on_and_off_identical(self, bench, images):
        on, off = (bench(images, 8, UHCAF_2LEVEL.with_(macro_events=macro))
                   for macro in (True, False))
        assert on.seconds_per_op == off.seconds_per_op
        assert on.traffic_per_op == off.traffic_per_op


# ----------------------------------------------------------------------
# A parked gather demoted when the engine drains
# ----------------------------------------------------------------------
def _skip_one_sync(ctx, worlds):
    if ctx.this_image() == 1:
        worlds.append(ctx.world)
    for k in range(3):
        if ctx.this_image() == ctx.num_images() and k == 1:
            continue  # the last image skips the second sync all
        yield from ctx.sync_all()


def _blocked_pairs(err):
    """(image, wait kind, cell name) per blocked image, team uid erased
    (the uid counter is process-global)."""
    return {(info.actor, info.kind,
             re.sub(r"^t\d+\.", "tN.", info.target.name))
            for info in err.details}


class TestParkedGatherDemotedAtDrain:
    def test_deadlock_report_names_real_cells(self):
        reports = {}
        for macro in (True, False):
            worlds = []
            with pytest.raises(DeadlockError) as exc:
                run_spmd(_skip_one_sync, num_images=16, images_per_node=1,
                         macro_events=macro, args=(worlds,))
            reports[macro] = (exc.value, worlds[0].macro)
        err_on, coordinator = reports[True]
        err_off, _ = reports[False]
        # the third window parked 15 images; the drain hook demoted it
        assert coordinator.replays >= 1
        assert coordinator.demotions == 1
        pairs = _blocked_pairs(err_on)
        assert len(pairs) == 15
        assert pairs == _blocked_pairs(err_off)
        assert all(kind == "cell" for _, kind, _ in pairs)
        assert not any("macro" in name for _, _, name in pairs)
        assert "macro" not in str(err_on)
