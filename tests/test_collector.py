"""The cyclic garbage collector is paused while a world is built and run.

``build_machine`` and ``run_spmd`` keep CPython's cyclic collector off
(:func:`repro.sim.collector_paused`): a run allocates long-lived objects
per image and per node, and every collection they would trigger walks
the live world to free nothing.  These tests pin the three halves of
that bargain: no collection runs, the caller's collector state comes
back on every exit, and a finished run leaves the collector nothing to
find, so pausing it costs no memory.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.apps.cg import cg_solve
from repro.faults import STAT_FAILED_IMAGE, FaultSchedule, ImageFailure, Stat
from repro.hpl.driver import hpl_main
from repro.machine import build_machine, paper_cluster
from repro.runtime.program import run_spmd
from repro.sim import (
    DeadlockError,
    Engine,
    ProcessFailure,
    SimulationLimitExceeded,
    collector_paused,
)


def run_counting(main, images, ipn, **kwargs):
    """``run_spmd`` on a prebuilt machine.  Returns the result and the
    generations of the collections that started before the run
    returned (the engine counts its events only then)."""
    engine = Engine()
    machine = build_machine(engine, paper_cluster(-(-images // ipn)), images,
                            images_per_node=ipn)
    gc.collect()  # earlier tests' dropped worlds are cycles
    started = []

    def note(phase, info):
        if phase == "start" and engine.events_processed == 0:
            started.append(info["generation"])

    gc.callbacks.append(note)
    try:
        res = run_spmd(main, machine=machine, **kwargs)
    finally:
        gc.callbacks.remove(note)
    return res, started


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on, and leave it as it was."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def chain_main(ctx, kinds):
    """``s`` sync all, ``r`` co_sum, ``b`` co_broadcast from image 1."""
    me = ctx.this_image()
    out = []
    for kind in kinds:
        if kind == "s":
            yield from ctx.sync_all()
        elif kind == "r":
            out.append(int((yield from ctx.co_sum(np.array([me])))[0]))
        else:
            out.append(int((yield from ctx.co_broadcast(np.array([me]),
                                                       source_image=1))[0]))
    return out


def chain_answer(n, kinds):
    total = n * (n + 1) // 2
    return [total if kind == "r" else 1 for kind in kinds if kind != "s"]


# ----------------------------------------------------------------------
# No collection runs
# ----------------------------------------------------------------------
class TestNoCollection:
    def test_flat_run_triggers_none(self, collector_enabled):
        n, kinds = 2000, "bssrsr"
        res, started = run_counting(chain_main, n, 1, args=(kinds,))
        assert res.world.macro.replays == len(kinds)
        assert res.results[0] == res.results[-1] == chain_answer(n, kinds)
        assert started == []

    def test_build_machine_triggers_none(self, collector_enabled):
        gc.collect()
        started = []

        def note(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(note)
        try:
            machine = build_machine(Engine(), paper_cluster(2000), 2000,
                                    images_per_node=1)
        finally:
            gc.callbacks.remove(note)
        assert len(machine.topology.nodes_used()) == 2000
        assert started == []


# ----------------------------------------------------------------------
# The caller's collector state comes back
# ----------------------------------------------------------------------
def seeing_main(seen, how):
    """A ``main`` that records ``gc.isenabled()`` and then ends as
    ``how`` says."""

    def main(ctx):
        seen.append(gc.isenabled())
        if how == "raise":
            raise RuntimeError("boom")
        if how == "deadlock" and ctx.this_image() == 1:
            return None  # image 2 waits at a barrier image 1 never enters
        if how == "spin":
            while True:
                yield from ctx.compute(seconds=1e-6)
        yield from ctx.sync_all()
        return gc.isenabled()

    return main


ENDINGS = [
    ("return", None),
    ("raise", ProcessFailure),
    ("deadlock", DeadlockError),
    ("spin", SimulationLimitExceeded),
]


class TestCallerState:
    @pytest.mark.parametrize("how, error", ENDINGS,
                             ids=[how for how, _ in ENDINGS])
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_state_comes_back(self, collector_enabled, how, error, enabled):
        seen = []
        main = seeing_main(seen, how)
        if not enabled:
            gc.disable()
        try:
            if error is None:
                res = run_spmd(main, num_images=2, images_per_node=1)
                assert res.results == [False, False]
            else:
                with pytest.raises(error):
                    run_spmd(main, num_images=2, images_per_node=1,
                             max_events=1000)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen and not any(seen)

    def test_nested_pause_keeps_the_outer_one(self, collector_enabled):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


# ----------------------------------------------------------------------
# A finished run leaves the collector nothing to find
# ----------------------------------------------------------------------
def cg_main(ctx, b):
    _x, iters, _residual = yield from cg_solve(ctx, b, max_iters=5, tol=0.0)
    return iters


def hpl_program(ctx):
    report = yield from hpl_main(ctx, 256, 32, seed=3)
    return report.seconds


def stat_main(ctx):
    st = Stat()
    codes = []
    for _ in range(5):
        yield from ctx.co_sum(ctx.this_image(), stat=st)
        codes.append(st.code)
    return codes


def control_main(ctx):
    """Events, a lock, ``critical`` and an atomic, then a barrier."""
    me, n = ctx.this_image(), ctx.num_images()
    ev = yield from ctx.event_var("ev")
    lk = yield from ctx.lock_var("lk")
    av = yield from ctx.atomic_var("av")
    yield from ctx.event_post(ev, me % n + 1)
    yield from ctx.event_wait(ev)
    yield from ctx.lock(lk, 1)
    yield from ctx.compute(seconds=1e-7)
    yield from ctx.unlock(lk, 1)
    yield from ctx.critical_begin()
    yield from ctx.compute(seconds=1e-7)
    yield from ctx.critical_end()
    old = yield from ctx.atomic_fetch_add(av, 1, 1)
    yield from ctx.sync_all()
    return old


def _flat_chain():
    # the last window is a replayed co_sum: every image's last wait is
    # that window's park
    res, started = run_counting(chain_main, 64, 1, args=("bssrsr",))
    assert res.world.macro.replays == 6
    assert res.results[0] == chain_answer(64, "bssrsr")
    return res, started


def _chain_per_node():
    res, started = run_counting(chain_main, 32, 8, args=("bssrsr",))
    assert res.results[-1] == chain_answer(32, "bssrsr")
    return res, started


def _cg():
    res, started = run_counting(
        cg_main, 8, 4, args=(np.random.default_rng(5).standard_normal(256),))
    assert res.results == [5] * 8
    return res, started


def _hpl():
    res, started = run_counting(hpl_program, 8, 4)
    assert all(seconds > 0 for seconds in res.results)
    return res, started


def _stat_kill():
    res, started = run_counting(
        stat_main, 16, 4,
        faults=FaultSchedule(failures=(ImageFailure(5, 5e-6),)))
    assert any(STAT_FAILED_IMAGE in codes for codes in res.results
               if isinstance(codes, list))
    return res, started


def _message_drop():
    res, started = run_counting(
        chain_main, 16, 4, args=("rsb",),
        faults=FaultSchedule(drop_rate=0.2, retransmit_timeout=3e-6, seed=7))
    assert res.results == [chain_answer(16, "rsb")] * 16
    return res, started


def _image_control():
    res, started = run_counting(control_main, 8, 2)
    assert sorted(res.results) == list(range(8))
    return res, started


PROGRAMS = {
    "flat-chain": _flat_chain,
    "chain-8-per-node": _chain_per_node,
    "cg": _cg,
    "hpl": _hpl,
    "stat-kill": _stat_kill,
    "message-drop": _message_drop,
    "image-control": _image_control,
}


@pytest.mark.parametrize("program", list(PROGRAMS))
def test_run_leaves_no_cycles(collector_enabled, program):
    """No collection runs during the program, and with its result held
    ``gc.collect()`` finds nothing: what the paused collector would
    have found, reference counting already freed."""
    res, started = PROGRAMS[program]()
    assert started == []
    assert gc.collect() == 0
    del res
