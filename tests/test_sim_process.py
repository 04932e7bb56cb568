"""Unit tests for generator-based simulated processes."""

import pytest

from repro.sim import (
    Acquire,
    BlockedInfo,
    Cell,
    DeadlockError,
    Engine,
    Hold,
    Process,
    ProcessFailure,
    Resource,
    SimEvent,
    Timeout,
    Wait,
    WaitFor,
)


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

    def test_acquire_and_manual_release(self, eng):
        res = Resource(eng, capacity=1)
        order = []

        def holder():
            yield Acquire(res)
            order.append(("got", eng.now))
            yield Timeout(2.0)
            res.release()

        def contender():
            yield Timeout(0.1)
            yield Acquire(res)
            order.append(("second", eng.now))
            res.release()

        Process(eng, holder())
        Process(eng, contender())
        eng.run()
        assert order == [("got", 0.0), ("second", 2.0)]

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

    def test_unknown_command_fails_process(self, eng):
        def proc():
            yield "not a command"

        Process(eng, proc())
        with pytest.raises(ProcessFailure, match="non-command"):
            eng.run()


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
        ev = SimEvent(eng, name="ev")
        cell = Cell(eng, 0, name="flag")
        res = Resource(eng, name="nic")

        def late_event():
            yield Timeout(1.0)
            yield Acquire(res)
            yield Wait(ev)

        def cell_waiter():
            yield WaitFor(cell, lambda v: v > 0)

        def acquirer():
            yield Timeout(2.0)
            yield Acquire(res)

        Process(eng, late_event(), name="p1", actor=1)
        Process(eng, cell_waiter(), name="p2", actor=2)
        Process(eng, acquirer(), name="p3", actor=3)
        err = self._report(eng)
        assert err.blocked == [
            "p2: waiting on cell 'flag'",
            "p1: waiting on event 'ev'",
            "p3: acquiring resource 'nic'",
        ]
        assert err.details == [
            BlockedInfo("p2", 2, "cell", cell),
            BlockedInfo("p1", 1, "event", ev),
            BlockedInfo("p3", 3, "resource", res),
        ]

    def test_reblocking_moves_to_the_end(self, eng):
        cell = Cell(eng, 0, name="c")
        ev = SimEvent(eng, name="ev")
        never = SimEvent(eng, name="never")
        eng.note_blocked("external: waiting")

        def twice():
            yield WaitFor(cell, lambda v: v >= 1)
            yield Wait(ev)

        def once():
            yield Wait(never)

        def writer():
            yield Timeout(1.0)
            cell.set(1)

        Process(eng, twice(), name="twice")
        Process(eng, once(), name="once")
        Process(eng, writer(), name="writer")
        err = self._report(eng)
        assert err.blocked == [
            "external: waiting",
            "once: waiting on event 'never'",
            "twice: waiting on event 'ev'",
        ]
        assert [d.process for d in err.details] == ["once", "twice"]

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
