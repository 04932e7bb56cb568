"""Unit tests for generator-based simulated processes."""

import math

import pytest

from repro.sim import (
    BlockedInfo,
    Cell,
    DeadlockError,
    Engine,
    Hold,
    Park,
    Process,
    ProcessFailure,
    Resource,
    SimEvent,
    Timeout,
    Wait,
    WaitFor,
)
from repro.verify import HBMonitor


@pytest.fixture
def eng():
    return Engine()


class TestCommands:
    def test_timeout_advances_process(self, eng):
        marks = []

        def proc():
            yield Timeout(1.0)
            marks.append(eng.now)
            yield Timeout(0.5)
            marks.append(eng.now)

        Process(eng, proc())
        eng.run()
        assert marks == [1.0, 1.5]

    def test_timeout_negative_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_wait_resumes_with_event_value(self, eng):
        ev = SimEvent(eng)
        got = []

        def waiter():
            value = yield Wait(ev)
            got.append(value)

        def poster():
            yield Timeout(1.0)
            ev.trigger("payload")

        Process(eng, waiter())
        Process(eng, poster())
        eng.run()
        assert got == ["payload"]

    def test_wait_on_already_triggered_event(self, eng):
        ev = SimEvent(eng)
        ev.trigger(9)
        got = []

        def proc():
            got.append((yield Wait(ev)))

        Process(eng, proc())
        eng.run()
        assert got == [9]

    def test_waitfor_blocks_until_predicate(self, eng):
        cell = Cell(eng, 0)
        times = []

        def waiter():
            value = yield WaitFor(cell, lambda v: v >= 2)
            times.append((eng.now, value))

        def writer():
            yield Timeout(1.0)
            cell.add(1)
            yield Timeout(1.0)
            cell.add(1)

        Process(eng, waiter())
        Process(eng, writer())
        eng.run()
        assert times == [(2.0, 2)]

    def test_hold_acquires_for_duration(self, eng):
        res = Resource(eng, capacity=1)
        marks = []

        def p(name):
            yield Hold(res, 1.0)
            marks.append((name, eng.now))

        Process(eng, p("a"))
        Process(eng, p("b"))
        eng.run()
        assert marks == [("a", 1.0), ("b", 2.0)]

    def test_park_resumes_with_the_value_passed(self, eng):
        queue = []
        park = Park(queue, "gate")
        got = []

        def parked(name):
            got.append((name, (yield park), eng.now))

        def waker():
            yield Timeout(2.0)
            for proc, value in zip(list(queue), ("x", "y")):
                proc.resume(value)

        a = Process(eng, parked("a"), name="a")
        b = Process(eng, parked("b"), name="b")
        Process(eng, waker())
        eng.run(until=1.0)
        assert queue == [a, b]  # park order
        assert eng.blocked_descriptions == [
            "a: waiting on park 'gate'", "b: waiting on park 'gate'",
        ]
        eng.run()
        assert got == [("a", "x", 2.0), ("b", "y", 2.0)]
        assert eng.blocked_descriptions == []

    @staticmethod
    def _non_command(ev, first):
        if first == "timeout":
            yield Timeout(1.0)
        elif first == "wait":
            yield Wait(ev)
        yield "not a command"

    def test_unknown_command_fails_process(self):
        # The same failure on every step path: the engine's inline lane,
        # a traced run (``Process.__call__``) and a monitored one; as the
        # first step, after a Timeout, and after a satisfied wait.
        for lane in ("inline", "traced", "monitored"):
            for first in ("spawn", "timeout", "wait"):
                eng = Engine(trace=(lambda t, label: None)
                             if lane == "traced" else None)
                if lane == "monitored":
                    eng.monitor = HBMonitor()
                ev = SimEvent(eng, name="set")
                ev.trigger()
                Process(eng, self._non_command(ev, first), name="image3",
                        actor=2)
                with pytest.raises(ProcessFailure,
                                   match="non-command") as exc:
                    eng.run()
                assert exc.value.process == "image3", (lane, first)
                assert isinstance(exc.value.original, TypeError)

    @pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf])
    def test_hold_invalid_duration_rejected(self, eng, duration):
        with pytest.raises(ValueError, match="Hold duration"):
            Hold(Resource(eng), duration)

    @pytest.mark.parametrize("duration", [-1.0, math.nan])
    def test_invalid_hold_fails_its_process_and_leaks_nothing(
            self, eng, duration):
        # Like a bad Timeout: a ProcessFailure naming the image, and the
        # resource neither held nor counted, so later requests get it.
        nic = Resource(eng, name="nic")

        def bad():
            yield Hold(nic, duration)

        Process(eng, bad(), name="image3")
        with pytest.raises(ProcessFailure, match="image3") as exc:
            eng.run()
        assert isinstance(exc.value.original, ValueError)
        assert (nic.in_use, nic.total_grants, eng.grants) == (0, 0, 0)
        marks = []

        def good():
            yield Hold(nic, 1.0)
            marks.append(eng.now)

        Process(eng, good())
        eng.run()
        assert marks == [1.0] and nic.idle


class TestSatisfiedWaitsRunFlat:
    """A wait that already holds when yielded resumes the process from
    inside the dispatch of its own command.  Thousands of them in a row
    must not nest a frame each: 5,000 is past the interpreter's default
    recursion limit of 1,000.  (The SPMD shape, 2,000 satisfied
    ``event_wait`` calls, is in ``tests/test_events.py``.)"""

    N = 5_000

    def test_satisfied_waitfors(self, eng):
        cell = Cell(eng, 1)

        def proc():
            total = 0
            for _ in range(self.N):
                total += yield WaitFor(cell, lambda v: v >= 1)
            return total

        p = Process(eng, proc())
        eng.run()
        assert p.result == self.N and eng.now == 0.0

    def test_waits_on_a_triggered_event(self, eng):
        ev = SimEvent(eng)
        ev.trigger(2)

        def proc():
            total = 0
            for _ in range(self.N):
                total += yield Wait(ev)
            return total

        p = Process(eng, proc())
        eng.run()
        assert p.result == 2 * self.N

    def test_order_of_effects_is_the_nested_one(self, eng):
        # A satisfied wait, then one that blocks, then a satisfied one:
        # the waker's write and the waiter's steps interleave as before.
        cell = Cell(eng, 1)
        log = []

        def waiter():
            log.append(("w", (yield WaitFor(cell, lambda v: v >= 1))))
            log.append(("w", (yield WaitFor(cell, lambda v: v >= 2))))
            log.append(("w", (yield WaitFor(cell, lambda v: v >= 2))))

        def writer():
            yield Timeout(1.0)
            log.append(("x", eng.now))
            cell.add(1)
            log.append(("x", "after"))

        Process(eng, waiter())
        Process(eng, writer())
        eng.run()
        assert log == [("w", 1), ("x", 1.0), ("w", 2), ("w", 2),
                       ("x", "after")]


class TestLifecycle:
    def test_return_value_on_done_event(self, eng):
        def proc():
            yield Timeout(1.0)
            return "result"

        p = Process(eng, proc())
        eng.run()
        assert p.finished
        assert p.result == "result"

    def test_exception_wrapped_with_process_name(self, eng):
        def proc():
            yield Timeout(1.0)
            raise ValueError("boom")

        Process(eng, proc(), name="imageX")
        with pytest.raises(ProcessFailure, match="imageX") as exc:
            eng.run()
        assert isinstance(exc.value.original, ValueError)

    def test_immediate_return_without_yield(self, eng):
        def proc():
            return 5
            yield  # pragma: no cover - makes this a generator

        p = Process(eng, proc())
        eng.run()
        assert p.result == 5

    def test_yield_from_subgenerators_compose(self, eng):
        def inner():
            yield Timeout(1.0)
            return 10

        def outer():
            value = yield from inner()
            yield Timeout(1.0)
            return value + 1

        p = Process(eng, outer())
        eng.run()
        assert p.result == 11
        assert eng.now == 2.0

    def test_blocked_process_detected_as_deadlock(self, eng):
        ev = SimEvent(eng, name="never")

        def proc():
            yield Wait(ev)

        Process(eng, proc(), name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            eng.run()

    def test_join_via_done_event(self, eng):
        def worker():
            yield Timeout(3.0)
            return "w"

        w = Process(eng, worker())
        got = []

        def joiner():
            value = yield Wait(w.done)
            got.append((value, eng.now))

        Process(eng, joiner())
        eng.run()
        assert got == [("w", 3.0)]

    def test_spawn_order_is_first_step_order(self, eng):
        order = []

        def proc(name):
            order.append(name)
            yield Timeout(0.0)

        Process(eng, proc("a"))
        Process(eng, proc("b"))
        eng.run()
        assert order == ["a", "b"]


class TestBlockedRegistry:
    """Deadlock reports: one line and one :class:`BlockedInfo` per blocked
    process, in the order the processes blocked."""

    @staticmethod
    def _report(eng):
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        return exc.value

    def test_cell_event_and_acquire_waiters(self, eng):
        # an acquirer spins on a lock word, as the runtime's locks do;
        # a parked process waits in its queue
        ev = SimEvent(eng, name="ev")
        cell = Cell(eng, 0, name="flag")
        lock = Cell(eng, 1, name="lock")
        park = Park([], "gate")

        def late_event():
            yield Timeout(1.0)
            yield Wait(ev)

        def cell_waiter():
            yield WaitFor(cell, lambda v: v > 0)

        def acquirer():
            yield Timeout(2.0)
            yield WaitFor(lock, lambda v: v == 0)

        def parked():
            yield Timeout(3.0)
            yield park

        Process(eng, late_event(), name="p1", actor=1)
        Process(eng, cell_waiter(), name="p2", actor=2)
        Process(eng, acquirer(), name="p3", actor=3)
        Process(eng, parked(), name="p4", actor=4)
        err = self._report(eng)
        assert err.blocked == [
            "p2: waiting on cell 'flag'",
            "p1: waiting on event 'ev'",
            "p3: waiting on cell 'lock'",
            "p4: waiting on park 'gate'",
        ]
        assert err.details == [
            BlockedInfo("p2", 2, "cell", cell),
            BlockedInfo("p1", 1, "event", ev),
            BlockedInfo("p3", 3, "cell", lock),
            BlockedInfo("p4", 4, "park", park),
        ]

    def test_reblocking_moves_to_the_end(self, eng):
        cell = Cell(eng, 0, name="c")
        ev = SimEvent(eng, name="ev")
        never = SimEvent(eng, name="never")

        def parked():
            yield Park([], "gate")

        def twice():
            yield WaitFor(cell, lambda v: v >= 1)
            yield Wait(ev)

        def once():
            yield Wait(never)

        def writer():
            yield Timeout(1.0)
            cell.set(1)

        Process(eng, parked(), name="parked")
        Process(eng, twice(), name="twice")
        Process(eng, once(), name="once")
        Process(eng, writer(), name="writer")
        err = self._report(eng)
        assert err.blocked == [
            "parked: waiting on park 'gate'",
            "once: waiting on event 'never'",
            "twice: waiting on event 'ev'",
        ]
        assert [d.process for d in err.details] == ["parked", "once", "twice"]

    def test_killed_blocked_process_leaves_no_entry(self, eng):
        never = SimEvent(eng, name="never")

        def waiter():
            yield Wait(never)

        victim = Process(eng, waiter(), name="victim")
        Process(eng, waiter(), name="survivor")

        def killer():
            yield Timeout(1.0)
            victim.kill()

        Process(eng, killer(), name="killer")
        err = self._report(eng)
        assert err.blocked == ["survivor: waiting on event 'never'"]
        assert [d.process for d in err.details] == ["survivor"]

    def test_holds_never_appear(self, eng):
        res = Resource(eng, name="nic")
        never = SimEvent(eng, name="never")
        seen = []

        def holder():
            yield Hold(res, 2.0)
            yield Wait(never)

        Process(eng, holder(), name="h1")
        Process(eng, holder(), name="h2")  # queued behind h1
        eng.schedule(1.0, lambda: seen.append(
            (eng.blocked_descriptions, eng.blocked_details)))
        err = self._report(eng)
        assert seen == [([], [])]
        assert err.blocked == ["h1: waiting on event 'never'",
                               "h2: waiting on event 'never'"]
