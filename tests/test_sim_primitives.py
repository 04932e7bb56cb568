"""Unit tests for SimEvent, Cell, and Resource."""

import math

import pytest

from repro.sim import (
    Cell,
    Engine,
    Hold,
    Process,
    Resource,
    SimEvent,
    Timeout,
)
from repro.sim.primitives import all_idle


@pytest.fixture
def eng():
    return Engine()


class TestSimEvent:
    def test_not_triggered_initially(self, eng):
        assert SimEvent(eng).triggered is False

    def test_value_before_trigger_raises(self, eng):
        with pytest.raises(RuntimeError, match="before trigger"):
            SimEvent(eng, name="e").value

    def test_trigger_delivers_value_to_waiters(self, eng):
        ev = SimEvent(eng)
        got = []
        ev.on_trigger(got.append)
        ev.trigger(42)
        assert got == [42]
        assert ev.value == 42

    def test_late_registration_fires_immediately(self, eng):
        ev = SimEvent(eng)
        ev.trigger("x")
        got = []
        ev.on_trigger(got.append)
        assert got == ["x"]

    def test_double_trigger_raises(self, eng):
        ev = SimEvent(eng)
        ev.trigger()
        with pytest.raises(RuntimeError, match="twice"):
            ev.trigger()

    def test_multiple_waiters_all_fire_in_order(self, eng):
        ev = SimEvent(eng)
        got = []
        ev.on_trigger(lambda v: got.append("a"))
        ev.on_trigger(lambda v: got.append("b"))
        ev.trigger()
        assert got == ["a", "b"]


class TestCell:
    def test_initial_value(self, eng):
        assert Cell(eng, 7).value == 7

    def test_set_updates_value(self, eng):
        c = Cell(eng)
        c.set(3)
        assert c.value == 3

    def test_add_returns_new_value(self, eng):
        c = Cell(eng, 10)
        assert c.add(5) == 15

    def test_wait_until_fires_when_predicate_becomes_true(self, eng):
        c = Cell(eng, 0)
        got = []
        key = c.wait_until(lambda v: v >= 3, got.append)
        assert key is not None
        c.add(1)
        c.add(1)
        assert got == []
        c.add(1)
        assert got == [3]

    def test_wait_until_fires_immediately_if_already_true(self, eng):
        c = Cell(eng, 5)
        got = []
        key = c.wait_until(lambda v: v >= 3, got.append)
        assert key is None
        assert got == [5]

    def test_watcher_removed_after_firing(self, eng):
        c = Cell(eng, 0)
        got = []
        c.wait_until(lambda v: v >= 1, got.append)
        c.add(1)
        c.add(1)
        assert got == [1]  # fired once only

    def test_cancel_wait(self, eng):
        c = Cell(eng, 0)
        got = []
        key = c.wait_until(lambda v: v >= 1, got.append)
        c.cancel_wait(key)
        c.add(1)
        assert got == []

    def test_multiple_watchers_fire_in_registration_order(self, eng):
        c = Cell(eng, 0)
        got = []
        c.wait_until(lambda v: v >= 1, lambda v: got.append("first"))
        c.wait_until(lambda v: v >= 1, lambda v: got.append("second"))
        c.set(1)
        assert got == ["first", "second"]

    def test_callback_may_reregister(self, eng):
        c = Cell(eng, 0)
        got = []

        def again(v):
            got.append(v)
            if v < 3:
                c.wait_until(lambda x, t=v: x > t, again)

        c.wait_until(lambda v: v >= 1, again)
        c.set(1)
        c.set(2)
        c.set(3)
        assert got == [1, 2, 3]

    def test_callback_writing_cell_does_not_lose_watchers(self, eng):
        c = Cell(eng, 0)
        got = []
        c.wait_until(lambda v: v == 1, lambda v: c.set(2))
        c.wait_until(lambda v: v == 2, got.append)
        c.set(1)
        assert got == [2]


class TestResource:
    def test_capacity_must_be_positive(self, eng):
        with pytest.raises(ValueError):
            Resource(eng, capacity=0)

    def test_grant_immediate_when_free(self, eng):
        r = Resource(eng)
        r.hold(1.0, _noop)
        assert (r.in_use, r.queue_length, r.total_grants) == (1, 0, 1)

    def test_queueing_when_full(self, eng):
        r = Resource(eng, capacity=1)
        r.hold(1.0, _noop)
        r.hold(1.0, _noop)
        assert (r.in_use, r.queue_length, r.total_grants) == (1, 1, 1)

    def test_release_grants_fifo(self, eng):
        r = Resource(eng, capacity=1)
        r.hold(1.0, _noop)
        order = []
        r.hold(1.0, lambda: order.append(("first", eng.now)))
        r.hold(1.0, lambda: order.append(("second", eng.now)))
        eng.run()
        assert order == [("first", 2.0), ("second", 3.0)]

    def test_release_idle_raises(self, eng):
        with pytest.raises(RuntimeError, match="idle"):
            Resource(eng, name="r").release()

    def test_capacity_two_grants_two(self, eng):
        r = Resource(eng, capacity=2)
        for _ in range(3):
            r.hold(1.0, _noop)
        assert (r.in_use, r.queue_length, r.total_grants) == (2, 1, 2)

    def test_occupy_serializes_holders(self, eng):
        r = Resource(eng, capacity=1)
        finish_times = []
        for _ in range(3):
            r.occupy(1.0).on_trigger(lambda _: finish_times.append(eng.now))
        eng.run()
        assert finish_times == [1.0, 2.0, 3.0]

    def test_occupy_then_callback_runs_at_release(self, eng):
        r = Resource(eng)
        marks = []
        r.occupy(2.0, then=lambda: marks.append(eng.now))
        eng.run()
        assert marks == [2.0]

    def test_grant_statistics(self, eng):
        r = Resource(eng, capacity=1)
        for _ in range(4):
            r.occupy(1.0)
        eng.run()
        assert r.total_grants == 4
        assert r.peak_queue == 3

    def test_parallel_capacity_overlaps_holds(self, eng):
        r = Resource(eng, capacity=2)
        finish = []
        for _ in range(4):
            r.occupy(1.0).on_trigger(lambda _: finish.append(eng.now))
        eng.run()
        assert finish == [1.0, 1.0, 2.0, 2.0]


def _noop():
    pass


def _holder(res, duration):
    yield Hold(res, duration)


class TestEngineGrantCounter:
    """Every grant a resource counts, its engine counts once too."""

    def test_immediate_hold(self, eng):
        r = Resource(eng)
        r.hold(1.0, _noop)
        assert eng.grants == r.total_grants == 1
        eng.run()
        assert eng.grants == 1

    def test_queued_hold_counts_at_hand_off(self, eng):
        r = Resource(eng)
        r.hold(1.0, _noop)
        r.hold(1.0, _noop)
        assert eng.grants == 1  # the second hold waits in the queue
        eng.run(until=1.0)  # the first completes and hands off
        assert eng.grants == r.total_grants == 2
        eng.run()
        assert eng.grants == 2

    def test_acquire_and_release(self, eng):
        # process Holds: the first is granted on the engine's inline
        # lane, the second queues and is granted at the first's release
        r = Resource(eng)
        for _ in range(2):
            Process(eng, _holder(r, 1.0))
        eng.run(until=0.0)
        assert eng.grants == 1 and r.queue_length == 1
        eng.run(until=1.0)
        assert eng.grants == 2 and r.queue_length == 0
        eng.run()
        assert r.idle and eng.grants == r.total_grants == 2

    def test_capacity_two(self, eng):
        r = Resource(eng, capacity=2)
        for _ in range(3):
            r.hold(1.0, _noop)
        assert eng.grants == 2
        eng.run()
        assert eng.grants == r.total_grants == 3

    def test_sums_over_resources(self, eng):
        a, b = Resource(eng), Resource(eng, capacity=2)
        for r in (a, a, b, b, b):
            r.occupy(1.0)
        b.hold(1.0, _noop)
        eng.run()
        assert eng.grants == a.total_grants + b.total_grants == 6

    def test_all_idle_sees_holders_and_queues(self, eng):
        a, b = Resource(eng), Resource(eng)
        assert all_idle([a, b])
        a.hold(1.0, _noop)
        a.hold(1.0, _noop)
        assert not all_idle([a, b]) and not all_idle([b, a])
        eng.run(until=1.0)  # the queued hold now holds
        assert not all_idle([a, b]) and not a.idle
        eng.run()
        assert all_idle([a, b]) and a.idle and b.idle


class TestHoldDuration:
    """A hold's duration is checked before anything is granted or
    queued, so a bad one raises and leaves the resource as it was."""

    @pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf])
    def test_bad_duration_leaves_resource_free(self, eng, duration):
        r = Resource(eng, name="nic")
        with pytest.raises(ValueError, match="hold duration"):
            r.hold(duration, _noop)
        with pytest.raises(ValueError, match="hold duration"):
            r.occupy(duration)
        assert (r.in_use, r.total_grants, eng.grants) == (0, 0, 0)
        assert r.idle and eng.pending_events == 0
        done = r.occupy(1.0)
        eng.run()
        assert done.triggered and r.idle and r.total_grants == 1

    def test_bad_duration_never_queues(self, eng):
        r = Resource(eng, name="nic")
        r.hold(1.0, _noop)
        with pytest.raises(ValueError, match="hold duration"):
            r.hold(-1.0, _noop)
        assert r.queue_length == 0 and r.peak_queue == 0
        eng.run()
        assert r.idle and r.total_grants == eng.grants == 1


class TestHoldQueue:
    """A process's ``Hold``, ``occupy()`` and a callable's ``hold()``
    share one FIFO.

    A hold's completion releases the resource (which grants the next
    entry and schedules its completion) before its own holder runs on;
    the times and orders below pin that.
    """

    @staticmethod
    def _holder(eng, res, log, tag, duration):
        yield Hold(res, duration)
        log.append((tag, eng.now))

    @staticmethod
    def _caller(eng, res, log, tag, duration):
        # queue a callable waiter from a process step, in spawn order
        res.hold(duration, lambda: log.append((tag, eng.now)))
        yield Timeout(0.0)

    @staticmethod
    def _occupy(eng, res, log, tag, duration):
        res.occupy(duration, then=lambda: log.append((tag + ".then", eng.now))
                   ).on_trigger(lambda _: log.append((tag, eng.now)))

    def test_mixed_requests_capacity_one(self, eng):
        r = Resource(eng, capacity=1, name="nic")
        log = []
        self._occupy(eng, r, log, "D", 3.0)  # granted before any process runs
        Process(eng, self._holder(eng, r, log, "A", 2.0))
        Process(eng, self._caller(eng, r, log, "B", 1.0))
        Process(eng, self._holder(eng, r, log, "C", 0.5))
        assert not r.idle
        eng.run(until=0.0)
        assert r.queue_length == 3
        eng.run()
        # each completion grants the next entry before its holder runs on
        assert log == [("D.then", 3.0), ("D", 3.0), ("A", 5.0), ("B", 6.0),
                       ("C", 6.5)]
        assert (r.total_grants, r.peak_queue) == (4, 3)
        assert r.idle and r.in_use == 0 and r.queue_length == 0

    def test_mixed_requests_capacity_two(self, eng):
        r = Resource(eng, capacity=2, name="bus")
        log = []
        self._occupy(eng, r, log, "D", 1.0)
        Process(eng, self._holder(eng, r, log, "A", 3.0))
        Process(eng, self._caller(eng, r, log, "B", 0.5))
        Process(eng, self._holder(eng, r, log, "C", 1.0))
        Process(eng, self._holder(eng, r, log, "E", 1.0))
        eng.run()
        assert log == [("D.then", 1.0), ("D", 1.0), ("B", 1.5), ("C", 2.5),
                       ("A", 3.0), ("E", 3.5)]
        assert (r.total_grants, r.peak_queue) == (5, 3)
        assert r.idle

    def test_zero_duration_holds_keep_fifo_order(self, eng):
        r = Resource(eng, capacity=1, name="pe")
        log = []
        for tag in "abc":
            Process(eng, self._holder(eng, r, log, tag, 0.0))
        eng.run()
        assert log == [("a", 0.0), ("b", 0.0), ("c", 0.0)]
        assert (r.total_grants, r.peak_queue) == (3, 2)

    def test_killed_holder_still_releases_on_schedule(self, eng):
        r = Resource(eng, capacity=1, name="nic")
        log = []
        victim = Process(eng, self._holder(eng, r, log, "A", 2.0))
        Process(eng, self._holder(eng, r, log, "B", 1.0))

        def killer():
            yield Timeout(1.0)
            victim.kill("dead")
            log.append(("kill", eng.now, r.in_use, r.queue_length))

        Process(eng, killer())
        eng.run()
        # A dies mid-hold; its hold still ends at 2.0 and B takes over
        assert log == [("kill", 1.0, 1, 1), ("B", 3.0)]
        assert victim.finished and victim.result == "dead"
        assert (r.total_grants, r.idle) == (2, True)

    def test_killed_queued_holder_still_takes_its_turn(self, eng):
        r = Resource(eng, capacity=1, name="nic")
        log = []
        Process(eng, self._holder(eng, r, log, "A", 2.0))
        victim = Process(eng, self._holder(eng, r, log, "B", 1.0))
        Process(eng, self._holder(eng, r, log, "C", 1.0))

        def killer():
            yield Timeout(1.0)
            victim.kill()

        Process(eng, killer())
        eng.run()
        # B was queued when killed: its entry is still granted and held,
        # it just never resumes
        assert log == [("A", 2.0), ("C", 4.0)]
        assert (r.total_grants, r.peak_queue) == (3, 2)

    def test_hold_completion_label(self):
        labels = []
        eng = Engine(trace=lambda t, label: labels.append((t, label)))
        r = Resource(eng, name="nic3")
        r.occupy(1.5)
        eng.run()
        assert labels == [(1.5, "nic3.hold")]
