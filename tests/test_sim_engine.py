"""Unit tests for the discrete-event engine: ordering, determinism,
clock behaviour, limits, deadlock reporting, and the pinned event
counts and end times of its basic shapes."""

import math

import pytest

from repro.sim import (
    Cell,
    DeadlockError,
    Engine,
    Process,
    SimulationLimitExceeded,
    Timeout,
    WaitFor,
)


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Engine().now == 0.0

    def test_single_event_advances_clock(self):
        eng = Engine()
        eng.schedule(1.5, lambda: None)
        assert eng.run() == 1.5

    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(2.0, lambda: fired.append("b"))
        eng.schedule(1.0, lambda: fired.append("a"))
        eng.schedule(3.0, lambda: fired.append("c"))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_insertion_order(self):
        eng = Engine()
        fired = []
        for i in range(10):
            eng.schedule(1.0, lambda i=i: fired.append(i))
        eng.run()
        assert fired == list(range(10))

    def test_nested_scheduling_from_callback(self):
        eng = Engine()
        fired = []

        def outer():
            fired.append("outer")
            eng.schedule(1.0, lambda: fired.append("inner"))

        eng.schedule(1.0, outer)
        eng.run()
        assert fired == ["outer", "inner"]
        assert eng.now == 2.0

    def test_call_now_runs_at_current_instant(self):
        eng = Engine()
        times = []
        eng.schedule(5.0, lambda: eng.call_now(lambda: times.append(eng.now)))
        eng.run()
        assert times == [5.0]

    def test_zero_delay_is_legal(self):
        eng = Engine()
        eng.schedule(0.0, lambda: None)
        assert eng.run() == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            Engine().schedule(-1.0, lambda: None)

    def test_infinite_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            Engine().schedule(float("inf"), lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            Engine().schedule(float("nan"), lambda: None)

    def test_run_with_empty_queue_returns_current_time(self):
        assert Engine().run() == 0.0

    def test_events_processed_counter(self):
        eng = Engine()
        for _ in range(7):
            eng.schedule(1.0, lambda: None)
        eng.run()
        assert eng.events_processed == 7

    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(10.0, lambda: fired.append(10))
        assert eng.run(until=5.0) == 5.0
        assert fired == [1]

    def test_run_until_can_resume(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        eng.run()
        assert fired == [1, 10]

    def test_run_until_earlier_horizon_rejected(self):
        # The clock never moves backwards: a second horizon before the
        # first one is refused, so no later schedule_at can land there.
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.schedule(3.0, lambda: None)
        eng.run(until=2.0)
        with pytest.raises(ValueError, match="until"):
            eng.run(until=1.5)
        assert eng.now == 2.0
        with pytest.raises(ValueError, match="schedule_at"):
            eng.schedule_at(1.6, lambda: None)

    def test_run_until_negative_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError, match="until"):
            eng.run(until=-1.0)
        assert eng.now == 0.0

    def test_run_until_nan_rejected(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="until"):
            eng.run(until=float("nan"))
        assert eng.now == 0.0
        assert eng.run() == 1.0  # the rejected call left the engine usable

    def test_run_until_inf_drains_everything(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        assert eng.run(until=math.inf) == 1.0

    def test_next_time_is_the_earliest_pending_instant(self):
        eng = Engine()
        assert eng.next_time is None
        eng.schedule(2.0, lambda: None)
        eng.schedule(1.0, lambda: None)
        assert eng.next_time == 1.0
        eng.run(until=1.5)
        assert eng.next_time == 2.0

    def test_pending_events_excludes_rest_of_own_batch(self):
        # A callback sees later instants and anything scheduled into its
        # own instant since its batch began, but not the undispatched
        # remainder of its own batch.
        eng = Engine()
        seen = []

        def probe():
            seen.append(eng.pending_events)
            eng.call_now(lambda: None)
            seen.append(eng.pending_events)

        eng.schedule(1.0, probe)
        eng.schedule(1.0, lambda: None)
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        eng.schedule(3.0, lambda: None)
        eng.run()
        assert seen == [2, 3]
        assert eng.pending_events == 0

    def test_same_instant_insert_fires_after_pending_batch(self):
        # Under any seed, a record scheduled into the instant being
        # drained never overtakes the batch already pending there.
        for seed in (None, 1, 2, 3):
            eng = Engine(tiebreak_seed=seed)
            fired = []
            for i in range(6):
                def first(i=i):
                    fired.append(i)
                    eng.call_now(lambda i=i: fired.append(10 + i))
                eng.schedule(1.0, first)
            eng.run()
            assert sorted(fired[:6]) == list(range(6))
            assert sorted(fired[6:]) == list(range(10, 16))

    def test_determinism_across_runs(self):
        def build():
            eng = Engine()
            order = []
            for i in range(50):
                eng.schedule((i * 7919 % 13) * 0.1, lambda i=i: order.append(i))
            eng.run()
            return order

        assert build() == build()

    def test_run_not_reentrant(self):
        eng = Engine()

        def recurse():
            eng.run()

        eng.schedule(1.0, recurse)
        with pytest.raises(RuntimeError, match="reentrant"):
            eng.run()


class TestLimits:
    def test_max_events_exceeded_raises(self):
        eng = Engine(max_events=10)

        def reschedule():
            eng.schedule(1.0, reschedule)

        eng.schedule(1.0, reschedule)
        with pytest.raises(SimulationLimitExceeded):
            eng.run()

    def test_crossing_event_counted_and_dropped_rest_kept(self):
        eng = Engine(max_events=5)
        fired = []
        for i in range(8):
            eng.schedule(1.0, lambda i=i: fired.append(i))
        with pytest.raises(SimulationLimitExceeded):
            eng.run()
        assert fired == [0, 1, 2, 3, 4]
        assert eng.events_processed == 6
        assert eng.pending_events == 2
        assert eng.next_time == 1.0

    def test_failing_event_restores_undispatched_remainder(self):
        eng = Engine()
        fired = []

        def boom():
            eng.call_now(lambda: fired.append("newer"))
            raise RuntimeError("boom")

        eng.schedule(1.0, lambda: fired.append("a"))
        eng.schedule(1.0, boom)
        eng.schedule(1.0, lambda: fired.append("b"))
        with pytest.raises(RuntimeError, match="boom"):
            eng.run()
        assert eng.events_processed == 2
        assert eng.pending_events == 2
        eng.run()  # the remainder fires before what the failure scheduled
        assert fired == ["a", "b", "newer"]


class TestDeadlockDetection:
    def test_blocked_process_reported_on_drain(self):
        eng = Engine()
        eng.note_blocked("proc A: waiting forever")
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        assert "proc A" in str(exc.value)

    def test_unblocked_process_not_reported(self):
        eng = Engine()
        token = eng.note_blocked("transient")
        eng.note_unblocked(token)
        eng.run()  # no exception

    def test_deadlock_lists_all_blocked(self):
        eng = Engine()
        for name in ("p1", "p2", "p3"):
            eng.note_blocked(name)
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        assert exc.value.blocked == ["p1", "p2", "p3"]

    def test_trace_hook_sees_labeled_events(self):
        seen = []
        eng = Engine(trace=lambda t, label: seen.append((t, label)))
        eng.schedule(1.0, lambda: None, label="tick")
        eng.schedule(2.0, lambda: None)  # unlabeled: not traced
        eng.run()
        assert seen == [(1.0, "tick")]


def _staggered(idx):
    """Distinct delays per chain keep several instants pending."""
    return (idx % 7 + 1) * 1e-9


def _trampoline(eng, chains=4, ticks=500):
    """Callbacks re-scheduling themselves, no processes."""

    def chain(delay):
        remaining = ticks

        def tick():
            nonlocal remaining
            remaining -= 1
            if remaining:
                eng.schedule(delay, tick)

        return tick

    for idx in range(chains):
        eng.schedule(0.0, chain(_staggered(idx)))


def _timeout_chains(eng, procs, ticks, delay):
    """``procs`` processes, each yielding ``ticks`` Timeouts of
    ``delay(idx)``: the process-driver resume path."""

    def image(timeout):
        for _ in range(ticks):
            yield timeout

    for idx in range(procs):
        Process(eng, image(Timeout(delay(idx))), name=f"chain{idx}")


def _ping_pong(eng, pairs=2, rounds=50):
    """Producer/consumer pairs spinning on Cells: watcher checks,
    blocked bookkeeping and wake-on-write."""

    def left(ping, pong):
        for r in range(1, rounds + 1):
            ping.add(1)
            yield WaitFor(pong, lambda v, r=r: v >= r)
            yield Timeout(1e-9)

    def right(ping, pong):
        for r in range(1, rounds + 1):
            yield WaitFor(ping, lambda v, r=r: v >= r)
            yield Timeout(1e-9)
            pong.add(1)

    for p in range(pairs):
        ping, pong = Cell(eng, name=f"ping{p}"), Cell(eng, name=f"pong{p}")
        Process(eng, left(ping, pong), name=f"left{p}")
        Process(eng, right(ping, pong), name=f"right{p}")


class TestKernelShapes:
    # Event counts and end times the bucketed kernel and the flat
    # tuple-heap kernel it replaced both produced on these shapes.
    @pytest.mark.parametrize("build, events, end_time", [
        pytest.param(_trampoline, 2000, 1.9960000000000157e-06,
                     id="trampoline"),
        pytest.param(lambda eng: _timeout_chains(eng, 4, 100, _staggered),
                     404, 3.9999999999999956e-07, id="engine_dispatch"),
        # identical delays: every instant is one same-time cohort
        pytest.param(lambda eng: _timeout_chains(eng, 4, 100,
                                                 lambda idx: 1e-9),
                     404, 9.999999999999989e-08, id="burst"),
        pytest.param(_ping_pong, 204, 9.999999999999989e-08,
                     id="sync_kernel"),
    ])
    def test_event_count_and_end_time_pinned(self, build, events, end_time):
        eng = Engine()
        build(eng)
        eng.run()
        assert eng.events_processed == events
        assert eng.now == end_time

    def test_timeout_chain_event_count_is_exact(self):
        # procs * (1 start + ticks timeouts) engine events.
        eng = Engine()
        _timeout_chains(eng, 3, 10, _staggered)
        eng.run()
        assert eng.events_processed == 3 * 11
