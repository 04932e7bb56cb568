"""Synchronization primitives for simulated processes.

Three primitives cover everything the PGAS runtime needs:

* :class:`SimEvent` — a one-shot triggerable event (completion of an RMA
  operation, release of a resource grant).
* :class:`Cell` — a watched mutable value with wake-on-write semantics.
  This is the simulation analogue of a *spin-wait on a flag in shared
  memory*: waiting costs nothing until the producing write happens, which
  is exactly how a cache-coherent spin loop behaves from the outside.
  ``sync_flags`` words, barrier counters and event counts are all Cells.
* :class:`Resource` — a FIFO counting semaphore used for serialization
  points in the machine model (a node's NIC injection port, a memory bus).
  FIFO ordering keeps the simulation deterministic under contention.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional

from .engine import Engine

__all__ = ["SimEvent", "Cell", "Resource", "all_idle"]


class SimEvent:
    """One-shot event: callbacks registered before the trigger fire on trigger;
    callbacks registered after fire immediately (at the current instant)."""

    __slots__ = ("_engine", "_triggered", "_value", "_callbacks", "name")

    def __init__(self, engine: Engine, name: str = ""):
        self._engine = engine
        self._triggered = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError(f"event {self.name!r} read before trigger")
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all waiters. Triggering twice is an error:
        one-shot semantics are what the runtime's completion logic relies on."""
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_event_trigger(self)
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the event fires (immediately if it has)."""
        if self._triggered:
            callback(self._value)
        else:
            self._callbacks.append(callback)


class Cell:
    """A watched scalar with wake-on-write.

    ``wait_until(pred, cb)`` registers a predicate over the cell's value;
    the callback runs as soon as a write makes the predicate true (or
    immediately if it already is).  Watchers are checked in registration
    order, and a watcher that fires is removed before its callback runs so
    the callback may freely re-register.

    The runtime uses Cells for everything an image would spin on:
    dissemination ``sync_flags`` counters, linear-barrier arrival counts,
    event-post counts.  Reads and writes are instantaneous — the *cost* of
    producing the write (the remote put, the memory-bus transaction) is
    charged by the machine model before ``set`` is called.

    Three write flavours matter to the concurrency checker
    (:mod:`repro.verify`): ``set`` is a plain *store* (last writer wins —
    two unordered stores are a write-after-write race); ``add`` and
    ``update`` are atomic read-modify-writes, which commute or are
    order-tolerant by contract and are never flagged.  ``meta`` is an
    optional dict the owner attaches (team, index, round, …) so deadlock
    and race reports can say *what* a cell is, not just its name.
    """

    __slots__ = ("_engine", "_value", "_watchers", "name", "_seq", "meta")

    def __init__(self, engine: Engine, value: Any = 0, name: str = "",
                 meta: Optional[dict] = None):
        self._engine = engine
        self._value = value
        self._watchers: dict[int, tuple[Callable[[Any], bool], Callable[[Any], None]]] = {}
        #: the next watcher key (a plain int: no iterator per cell)
        self._seq = 0
        self.name = name
        self.meta = meta

    @property
    def value(self) -> Any:
        return self._value

    def set(self, value: Any) -> None:
        """Plain store (checked for write-after-write races when monitored)."""
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_cell_write(self, "set")
        self._value = value
        self._check_watchers()

    def add(self, delta: Any) -> Any:
        """Atomic read-modify-write (the simulation is single-threaded, so
        plain += is atomic); returns the new value."""
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_cell_write(self, "add")
        self._value = self._value + delta
        self._check_watchers()
        return self._value

    def update(self, fn: Callable[[Any], Any]) -> Any:
        """General atomic read-modify-write: ``value = fn(value)``.

        Used by the runtime's atomics (``atomic_add``/``and``/``or``/
        ``xor``, fetch-and-op, CAS), whose target-side application is
        atomic by construction; returns the new value.
        """
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_cell_write(self, "update")
        self._value = fn(self._value)
        self._check_watchers()
        return self._value

    def _check_watchers(self) -> None:
        # Watcher keys come from a monotonic counter and dicts preserve
        # insertion order, so plain iteration visits watchers in exactly
        # the registration order the old ``sorted()`` produced — without
        # sorting on every write.  Sync cells almost always have 0 or 1
        # watchers, so those cases take dedicated early-outs.
        watchers = self._watchers
        if not watchers:
            return
        if len(watchers) == 1:
            key, (pred, cb) = next(iter(watchers.items()))
            if pred(self._value):
                del watchers[key]
                cb(self._value)
            return
        # Snapshot: callbacks may register new watchers or write the cell.
        for key, entry in list(watchers.items()):
            if key not in watchers:
                continue  # removed by an earlier callback this pass
            pred, cb = entry
            if pred(self._value):
                del watchers[key]
                cb(self._value)

    def wait_until(
        self, pred: Callable[[Any], bool], callback: Callable[[Any], None]
    ) -> Optional[int]:
        """Run ``callback(value)`` once ``pred(value)`` holds.

        Returns a watcher key if the wait is pending (cancelable via
        :meth:`cancel_wait`), or ``None`` if the predicate already held and
        the callback ran synchronously.
        """
        if pred(self._value):
            callback(self._value)
            return None
        key = self._seq
        self._seq = key + 1
        self._watchers[key] = (pred, callback)
        return key

    def cancel_wait(self, key: int) -> None:
        self._watchers.pop(key, None)


#: the queue of a resource nothing has waited for yet (empty, like it)
_NO_QUEUE: tuple = ()

#: upper bound of the chained hold-duration check (rejects nan too)
_INF = math.inf

#: Filled in by :mod:`repro.sim.process` at import time (it imports this
#: module, so it cannot be imported here): a hold whose waiter is a
#: :class:`~repro.sim.process.Process` schedules the process itself as
#: its completion record.
_PROCESS_CLASS: Any = None


class Resource:
    """FIFO counting semaphore: the serialization points of the machine model.

    A NIC that can inject one message every ``gap`` seconds is modeled as a
    capacity-1 Resource held for ``gap``; eight images flushing barrier
    notifications through it queue up in deterministic FIFO order — this is
    precisely the serialization effect the paper's Section IV-A argues
    makes flat dissemination slow on multicore nodes.

    Every request is a *hold* (:meth:`hold`, and through it
    :meth:`occupy` and the ``Hold`` process command), queued as one
    ``(duration, waiter)`` entry: at grant the resource schedules the
    holder's completion ``duration`` later, and the completion releases
    the resource (granting the next entry) before the holder goes on.
    A :class:`~repro.sim.process.Process` waiter is its own completion
    record: the grant notes the resource in the process's ``_holding``
    slot and schedules the process itself, which releases it when it
    fires (the engine's drain loop grants a process's ``Hold`` inline
    the same way).  Any other waiter is a callable, and its record is
    ``partial(_complete, resource, waiter)``.  Both records carry the
    label ``<name>.hold``.
    """

    __slots__ = ("_engine", "capacity", "_in_use", "_queue", "name", "_granted",
                 "_peak", "_hold_label")

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._engine = engine
        self.capacity = capacity
        self._in_use = 0
        # deque: grants pop from the left in O(1); a list's pop(0) is O(n)
        # and showed up under contention (every NIC gap on a busy node).
        # Created on the first wait: a machine has four resources per
        # node, most never contended, and a deque is ~600 bytes.
        self._queue: Any = _NO_QUEUE
        self.name = name
        self._granted = 0
        self._peak = 0
        self._hold_label = f"{name}.hold"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """True when nothing holds the resource and nothing is queued.

        Macro-events (:mod:`repro.collectives.macro`) check this on every
        machine resource (through :func:`all_idle`) before collapsing a
        window: a busy bus or NIC means in-flight foreign traffic could
        contend with the window's own transfers, so the window must run
        fine-grained.
        """
        return self._in_use == 0 and not self._queue

    @property
    def total_grants(self) -> int:
        """Lifetime number of acquisitions granted (contention statistics).
        Every grant also bumps the engine-wide :attr:`Engine.grants`."""
        return self._granted

    @property
    def peak_queue(self) -> int:
        """Longest queue observed (contention statistics)."""
        return self._peak

    def _enqueue(self, duration: float, waiter: Any) -> None:
        queue = self._queue
        if queue is _NO_QUEUE:
            queue = self._queue = deque()
        queue.append((duration, waiter))
        if len(queue) > self._peak:
            self._peak = len(queue)

    def release(self) -> None:
        """End one hold: grant the next queued entry, or free the unit."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._queue:
            duration, waiter = self._queue.popleft()
            self._granted += 1
            engine = self._engine
            engine.grants += 1
            if waiter.__class__ is _PROCESS_CLASS:
                waiter._holding = self
                engine.schedule(duration, waiter, label=self._hold_label)
            else:
                engine.schedule(duration, partial(_complete, self, waiter),
                                label=self._hold_label)
        else:
            self._in_use -= 1

    def hold(self, duration: float, waiter: Callable[[], None]) -> None:
        """Acquire, hold for ``duration`` simulated seconds, release, then
        call ``waiter()`` — all from one queue entry, with no event
        objects.  A :class:`~repro.sim.process.Process` waiter (the
        ``Hold`` command) is its own completion record; calling it
        releases the resource, then resumes the generator.

        ``duration`` must be finite and non-negative; it is checked
        before anything is granted or queued, so a bad one leaves the
        resource as it was."""
        if not 0.0 <= duration < _INF:
            raise ValueError(
                f"hold duration must be finite and >= 0, got {duration!r}"
            )
        if self._in_use < self.capacity:
            self._in_use += 1
            self._granted += 1
            engine = self._engine
            engine.grants += 1
            if waiter.__class__ is _PROCESS_CLASS:
                waiter._holding = self
                engine.schedule(duration, waiter, label=self._hold_label)
            else:
                engine.schedule(duration, partial(_complete, self, waiter),
                                label=self._hold_label)
        else:
            self._enqueue(duration, waiter)

    def occupy(self, duration: float, then: Optional[Callable[[], None]] = None) -> SimEvent:
        """Acquire, hold for ``duration`` simulated seconds, release.

        Returns an event that triggers at release time; ``then`` (if given)
        runs at that moment, before the event fires.  This is the
        one-liner the network model uses for NIC injection gaps.
        """
        done = SimEvent(self._engine, name=f"{self.name}.occupy")

        def _finish() -> None:
            if then is not None:
                then()
            done.trigger()

        self.hold(duration, _finish)
        return done


_in_use_of = attrgetter("_in_use")


def all_idle(resources: Iterable[Resource]) -> bool:
    """True when every resource is :attr:`~Resource.idle`.

    A resource queues requests only while fully in use, so an in-use
    count of zero implies an empty queue; the sweep reads that one slot
    per resource in C, without a Python frame each (macro-events sweep
    every fabric resource of a 3,000-node machine per window).
    """
    return not any(map(_in_use_of, resources))


def _complete(resource: Resource, waiter: Callable[[], None]) -> None:
    """End of a callable waiter's hold: release first (which may grant
    and schedule the next queued holder), then hand control to the
    holder."""
    resource.release()
    waiter()
