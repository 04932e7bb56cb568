"""Generator-based simulated processes.

A simulated process is a Python generator that ``yield``\\ s *command*
objects; the :class:`Process` driver executes each command against the
engine and resumes the generator with the command's result.  This gives
the CAF runtime straight-line SPMD code::

    def image_main(ctx):
        yield Timeout(1e-6)            # local work
        yield Wait(some_event)         # block on an RMA completion
        value = yield WaitFor(cell, lambda v: v >= 3)

Commands
--------
``Timeout(delay)``
    Advance this process by ``delay`` simulated seconds.
``Wait(event)``
    Block until a :class:`~repro.sim.primitives.SimEvent` fires; resumes
    with the event's value.
``WaitFor(cell, pred)``
    Block until ``pred(cell.value)``; resumes with the satisfying value.
    Models a shared-memory spin-wait at zero simulated cost.
``Hold(resource, duration)``
    Acquire, hold for ``duration``, release; resumes at release time.
    A hold always has a scheduled end, so it never counts as blocked.
    The process is its own completion record: its ``_holding`` slot
    names the resource until the record fires and releases it.
``Park(queue, name)``
    Append this process to ``queue`` and block until some other party
    calls :meth:`Process.resume` on it; resumes with the value passed
    there.  No event object is involved: whoever owns the queue finds
    the process in it.

Sub-generators compose with plain ``yield from``, so runtime layers nest
without any driver support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .engine import Engine
from .errors import ProcessFailure
from .primitives import Cell, Resource, SimEvent

__all__ = [
    "Timeout", "Wait", "WaitFor", "Hold", "Park", "Process",
    "ProcGen", "BlockedInfo",
]

#: Type alias for the generator signature simulated processes must have.
ProcGen = Generator[Any, Any, Any]

#: ``Process._pending`` when no satisfied wait has handed over a value
#: (any value, None included, may be handed over)
_NOTHING: Any = object()


@dataclass(frozen=True, slots=True)
class Timeout:
    """Advance the issuing process by ``delay`` simulated seconds.

    ``delay`` is validated here, at construction (finite and
    non-negative), so a Timeout *instance* is always schedulable — the
    engine's inlined resume lane relies on that to skip re-validating the
    dominant command on every event.  ``slots=True`` on all command
    dataclasses removes the per-instance ``__dict__``: commands are
    created once per yielded cost on the hot path, and their attribute
    reads sit inside the engine's inner loop.
    """

    delay: float

    def __post_init__(self) -> None:
        # Chained comparison rejects negatives, inf and (any comparison
        # with NaN being false) nan in one expression.
        if not 0.0 <= self.delay < math.inf:
            raise ValueError(
                f"Timeout delay must be finite and >= 0, got {self.delay}"
            )


@dataclass(frozen=True, slots=True)
class Wait:
    """Block until ``event`` triggers; the process resumes with its value."""

    event: SimEvent


@dataclass(frozen=True, slots=True)
class WaitFor:
    """Block until ``pred(cell.value)`` is true (wake-on-write, zero cost)."""

    cell: Cell
    pred: Callable[[Any], bool]


@dataclass(frozen=True, slots=True)
class Hold:
    """Acquire ``resource``, hold it ``duration`` seconds, then release.

    ``duration`` is validated at construction like :class:`Timeout`'s
    delay, so the engine's inlined hold lane can grant and schedule a
    Hold instance without re-checking it.
    """

    resource: Resource
    duration: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(
                f"Hold duration must be finite and >= 0, got {self.duration}"
            )


@dataclass(frozen=True, slots=True)
class Park:
    """Block in ``queue`` until resumed through :meth:`Process.resume`.

    The process appends itself to ``queue`` (a list, so its owner sees
    the parked processes in park order) and enters the blocked registry
    under ``name``, which deadlock reports print.  One instance may serve
    every process that parks in the same queue.
    """

    queue: list
    name: str = "park"


@dataclass(frozen=True)
class BlockedInfo:
    """Structured record of one blocked process, attached to
    :class:`~repro.sim.errors.DeadlockError` for wait-for analysis.

    ``actor`` is the identity the spawner gave the process (0-based global
    proc id for SPMD images, ``None`` for anonymous processes); ``kind``
    is one of ``cell``/``event``/``park``; ``target`` is the primitive
    being waited on (a :class:`Cell`, a :class:`SimEvent`, or the
    :class:`Park` command).
    """

    process: str
    actor: Optional[Any]
    kind: str
    target: Any


class Process:
    """Drives one generator to completion against an engine.

    The ``done`` event triggers with the generator's return value when the
    process finishes.  Exceptions raised inside the generator are wrapped
    in :class:`~repro.sim.errors.ProcessFailure` and re-raised out of the
    engine's run loop — a crashed image never fails silently.

    ``actor`` names the simulated agent this process embodies (the SPMD
    launcher passes the image's global proc id); the concurrency monitor
    uses it to attribute writes and waits to a vector clock, and deadlock
    reports use it to name images.  Anonymous processes pass ``None``.
    """

    __slots__ = ("_engine", "_gen", "_send", "name", "actor", "done",
                 "_blocked", "_wait_kind", "_wait_target", "_finished",
                 "_timeout_label", "_holding", "_stepping", "_pending")

    def __init__(self, engine: Engine, gen: ProcGen, name: str = "proc",
                 actor: Optional[Any] = None):
        self._engine = engine
        self._gen = gen
        self._send = gen.send  # bound once; resumed on every step
        self.name = name
        self.actor = actor
        self.done = SimEvent(engine, name=f"{name}.done")
        # While blocked, the process is a key of the engine's blocked
        # registry and ``_wait_kind``/``_wait_target`` say on what; the
        # deadlock report text is built from these only if it is needed.
        self._blocked = engine._blocked
        self._wait_kind: Optional[str] = None
        self._wait_target: Any = None
        self._finished = False
        # A process has at most one outstanding no-value resume (it drives
        # a single generator), so the process object itself is the
        # callback for its spawn step and the end of every Timeout and
        # Hold it ever yields (``__call__`` below), and one preformatted
        # label serves its timeouts.  Scheduling ``self`` instead of a
        # closure is what lets the engine's drain loop recognize the
        # record by class and inline the resume without any per-event
        # indirection.
        self._timeout_label = f"{name}.timeout"
        # While a Hold is granted, its resource, which the process
        # releases when its record fires.
        self._holding: Optional[Resource] = None
        # True while a command handler runs; a wait it satisfies at once
        # leaves its value in ``_pending`` (see :meth:`resume`).
        self._stepping = False
        self._pending: Any = _NOTHING
        # Start at the current instant so spawn order = first-step order.
        engine.call_now(self, label=f"{name}.start")

    def __call__(self) -> None:
        """Resume the generator with no value: the spawn step, a Timeout's
        expiry, or the end of a Hold.  At the end of a Hold the process
        first releases the resource it held (which may grant and
        schedule the next holder), and only then resumes, so a killed
        holder still releases on schedule.  The engine's drain loop
        inlines this when it recognizes a scheduled :class:`Process` and
        no trace or monitor is attached; traced and monitored runs come
        here.
        """
        res = self._holding
        if res is not None:
            self._holding = None
            res.release()
        self.resume(None)

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def blocked(self) -> bool:
        """True while the process is in the engine's blocked registry."""
        return self._wait_kind is not None

    @property
    def generator(self) -> ProcGen:
        """The generator this process drives; its suspended ``yield
        from`` chain says where the process is."""
        return self._gen

    @property
    def result(self) -> Any:
        return self.done.value

    def kill(self, result: Any = None) -> None:
        """Fail-stop this process at the current instant (idempotent).

        The generator is closed mid-flight (its ``finally`` blocks run),
        any deadlock-bookkeeping entry is retired, and ``done`` triggers
        with ``result`` so joiners are not left waiting.  Wake-ups already
        in flight (a pending Timeout, an event the process subscribed to)
        become no-ops via the ``_finished`` guards — a dead image never
        executes another step.  Used by fault injection
        (:mod:`repro.faults`); safe to call on a completed process.
        """
        if self._finished:
            return
        self._finished = True
        if self._wait_kind is not None:
            self._wait_kind = None
            del self._blocked[self]
        self._gen.close()
        if not self.done.triggered:
            self.done.trigger(result)

    # ------------------------------------------------------------------
    def _block(self, kind: str, target: Any) -> None:
        """Enter the engine's blocked registry (dict order = block order;
        a process that wakes and blocks again moves to the end)."""
        self._wait_kind = kind
        self._wait_target = target
        self._blocked[self] = self

    def blocked_description(self) -> str:
        """Deadlock-report line, e.g. ``"image3: waiting on cell 'x'"``."""
        return (f"{self.name}: waiting on {self._wait_kind} "
                f"{self._wait_target.name!r}")

    def blocked_info(self) -> BlockedInfo:
        """Structured deadlock-report record of the current wait."""
        return BlockedInfo(self.name, self.actor, self._wait_kind,
                           self._wait_target)

    def resume(self, value: Any) -> None:
        """Resume the process with ``value`` at the current instant: leave
        the blocked registry, then step the generator.  Every wait that
        delivers a value ends here; a :class:`Park` ends only when the
        queue's owner calls this.  With a concurrency monitor attached,
        each generator step is bracketed by its ``begin_step`` and
        ``end_step`` hooks (see ``repro.verify``).

        A wait that already holds when the process yields it (a set
        event, a true predicate) calls this from inside the handler that
        dispatches it.  The value is then left in ``_pending`` for the
        stepping loop, which sends it once the handler returns, so any
        number of satisfied waits in a row runs in one frame instead of
        one frame each.  No handler does anything after its synchronous
        callback returns, so the order of effects is the one nested
        calls would give.
        """
        if self._wait_kind is not None:
            self._wait_kind = None
            del self._blocked[self]
        if self._finished:
            return  # fail-stopped (or completed): stale wake-up
        if self._stepping:
            self._pending = value
            return
        monitor = self._engine.monitor
        send = self._send
        while True:
            if monitor is not None:
                monitor.begin_step(self.actor)
            try:
                command = send(value)
            except StopIteration as stop:
                self._finished = True
                self.done.trigger(stop.value)
                return
            except Exception as exc:  # noqa: BLE001 - wrap and surface any model bug
                self._finished = True
                raise ProcessFailure(self.name, exc) from exc
            finally:
                if monitor is not None:
                    monitor.end_step()
            # Timeout is the dominant command (every charged cost is one),
            # so it is tested inline before the dispatch-table lookup.
            if type(command) is Timeout:
                self._engine.schedule(
                    command.delay, self, label=self._timeout_label
                )
                return
            handler = _DISPATCH.get(type(command), _not_a_command)
            self._stepping = True
            try:
                handler(self, command)
            finally:
                self._stepping = False
            value = self._pending
            if value is _NOTHING:
                return
            self._pending = _NOTHING

    def _dispatch(self, command: Any) -> None:
        """Execute one yielded command other than a ``Timeout``: the
        engine's inline lane hands over each command it does not grant
        itself."""
        _DISPATCH.get(type(command), _not_a_command)(self, command)

    # -- per-command handlers (type-keyed via _DISPATCH) ----------------
    def _do_wait(self, command: Wait) -> None:
        ev = command.event
        if not ev.triggered:
            self._block("event", ev)
        if self._engine.monitor is None:
            ev.on_trigger(self.resume)
        else:
            ev.on_trigger(self._observing_resume("event", ev))

    def _do_wait_for(self, command: WaitFor) -> None:
        # One predicate check: ``wait_until`` resumes synchronously when
        # the predicate already holds, and returns a watcher key only
        # when the process has to block.
        cell = command.cell
        if self._engine.monitor is None:
            key = cell.wait_until(command.pred, self.resume)
        else:
            key = cell.wait_until(command.pred,
                                  self._observing_resume("cell", cell))
        if key is not None:
            self._block("cell", cell)

    def _do_hold(self, command: Hold) -> None:
        # The process is its own completion record: the resource notes
        # itself in ``_holding`` at grant and schedules the process,
        # whose no-value resume releases it first.
        command.resource.hold(command.duration, self)

    def _do_park(self, command: Park) -> None:
        command.queue.append(self)
        self._block("park", command)

    def _observing_resume(self, kind: str, target: Any) -> Callable[[Any], None]:
        """A resume callback that first tells the monitor (if any) that this
        actor observed the wait target — the waiter's clock absorbs the
        writes that satisfied the wait, which is exactly the
        synchronizes-with edge a spin-wait provides."""
        monitor = self._engine.monitor
        if monitor is None:
            return self.resume

        def _resume_observed(value: Any) -> None:
            if kind == "cell":
                monitor.on_cell_observed(target, self.actor)
            else:
                monitor.on_event_observed(target, self.actor)
            self.resume(value)

        return _resume_observed


def _not_a_command(process: Process, command: Any) -> None:
    """The handler of anything a process yields that is not a command."""
    raise ProcessFailure(
        process.name,
        TypeError(f"process yielded non-command object {command!r}"),
    )


#: Exact-type command dispatch for every command but ``Timeout``, which
#: both step paths test first.
_DISPATCH: dict = {
    Wait: Process._do_wait,
    WaitFor: Process._do_wait_for,
    Hold: Process._do_hold,
    Park: Process._do_park,
}

# Let the engine's drain loop recognize scheduled Process records and
# inline the no-value resume and the Timeout and Hold commands (see
# Engine._drain), and let a Resource schedule a holding Process as its
# own completion record (see Resource.hold).
from . import engine as _engine_module  # noqa: E402 - registration hook
from . import primitives as _primitives_module  # noqa: E402

_engine_module._register_process_types(Process, Timeout, Hold)
_primitives_module._PROCESS_CLASS = Process
