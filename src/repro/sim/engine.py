"""Deterministic discrete-event simulation engine.

The engine is the clock and scheduler underneath everything in
:mod:`repro`: the machine model charges communication costs by scheduling
callbacks, and the CAF runtime's images are generator-based processes
(:mod:`repro.sim.process`) resumed by this engine.

Determinism is a hard requirement — a reproduction is useless if two runs
of the same benchmark disagree.  Every event is one record
``(key, fn, label)``, and one rule orders them: instants fire in time
order; within an instant, records fire in key order; and records
scheduled *into* the instant being drained form a later batch at that
instant, after every record already pending there.  By default the key
is the insertion sequence number, which only grows, so same-instant
events fire in the order they were scheduled.

Schedule fuzzing (``repro.verify``) relaxes exactly that: with a
``tiebreak_seed`` the key is seeded random bits above the sequence number
(``getrandbits(32) << 48 | seq``), which permutes the records sharing an
instant — still fully deterministically per seed.  Events at the same
instant are causally concurrent (anything that *must* happen later is
scheduled later, or at a later time), so every such permutation is a
legal interleaving; a program whose *semantic* result changes under a
different seed has a real ordering bug.  The batch clause holds under a
seed too: a same-instant insert never overtakes the batch already
pending.

Events live in per-instant *buckets*: ``_buckets`` maps a timestamp to
the key-sorted list of records due then, and the min-heap ``_times``
holds each bucket's timestamp once.  Simulated workloads are bursty, so
the drain loop pays one ``heappop`` per *instant*, and scheduling into an
existing instant is a list append.  The drain loop takes an instant's
bucket out of the dict before dispatching it, which is what makes
same-instant inserts a later batch.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import insort
from typing import Any, Callable, Iterator, Optional

from .errors import DeadlockError, ProcessFailure, SimulationLimitExceeded

__all__ = ["Engine"]

#: Upper bound of the chained range checks: ``0.0 <= delay < _INF``
#: rejects negatives, ``inf`` and (any comparison with NaN being false)
#: ``nan`` in one expression.
_INF = math.inf

#: Default ceiling on processed events; generous enough for the largest
#: benchmark in the suite (HPL at 256 images) while still catching livelock.
DEFAULT_MAX_EVENTS = 500_000_000

#: Filled in by :mod:`repro.sim.process` at import time so the drain loop
#: can recognize a scheduled :class:`Process` record and inline its
#: no-value resume (the single hottest edge in the simulator) without a
#: circular import.  ``None`` until registration: the identity test then
#: never matches and every record takes the generic ``fn()`` branch, so a
#: bare engine works without the process layer.
_PROCESS_CLASS: Any = None
_TIMEOUT_CLASS: Any = None
_HOLD_CLASS: Any = None


def _register_process_types(process_cls: type, timeout_cls: type,
                            hold_cls: type) -> None:
    """Hook for :mod:`repro.sim.process`: enable the inlined resume lane."""
    global _PROCESS_CLASS, _TIMEOUT_CLASS, _HOLD_CLASS
    _PROCESS_CLASS = process_cls
    _TIMEOUT_CLASS = timeout_cls
    _HOLD_CLASS = hold_cls


class Engine:
    """Bucketed event-queue simulation kernel with a float-seconds clock.

    Parameters
    ----------
    max_events:
        Safety ceiling on the number of processed events.  Exceeding it
        raises :class:`~repro.sim.errors.SimulationLimitExceeded`.
    trace:
        Optional callable invoked as ``trace(time, label)`` for every
        event that carries a label; useful in tests that assert ordering.
        Also settable later through the public :attr:`trace` attribute
        (read when a run starts).
    tiebreak_seed:
        When given, events sharing an instant fire in a seed-determined
        pseudo-random order instead of insertion order.  Used by
        :mod:`repro.verify` to fuzz legal interleavings; leave ``None``
        (the default) for the insertion-order policy.

    ``schedule(delay, fn, label="")`` runs ``fn`` after ``delay``
    simulated seconds (finite and non-negative: simulated causality only
    flows forward).  ``schedule_at(time, fn, label="")`` runs it at the
    *absolute* timestamp ``time`` (``now <= time < inf``); macro-events
    replay analytic timelines through it, since ``now + (time - now)``
    is not exact.  ``call_now(fn, label="")`` runs ``fn`` at the current
    instant.  All three are per-instance closures bound in ``__init__``:
    scheduling is the per-event hot path, and a closure skips the
    attribute lookups and bound-method creation of a method call.
    """

    __slots__ = (
        "_times", "_buckets", "_mint", "_now", "_max_events",
        "_events_processed", "_tiebreak_seed", "trace", "monitor",
        "_blocked", "_running", "_drain_hooks",
        "schedule", "call_now", "schedule_at", "grants",
    )

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        trace: Optional[Callable[[float, str], None]] = None,
        tiebreak_seed: Optional[int] = None,
    ):
        self._times: list[float] = []
        self._buckets: dict[float, list] = {}
        times, buckets = self._times, self._buckets
        self._now = 0.0
        self._max_events = int(max_events)
        self._events_processed = 0
        self._tiebreak_seed = tiebreak_seed
        self.trace = trace
        #: optional concurrency monitor (duck-typed; see
        #: :class:`repro.verify.HBMonitor`).  The sim primitives consult it
        #: on every write/wait when set; ``None`` costs one attribute read.
        self.monitor: Optional[Any] = None
        # Blocked processes for deadlock reports, in block order: a
        # blocked Process registers as ``proc -> proc`` and the report
        # text is built on demand.
        self._blocked: dict[Any, Any] = {}
        self._running = False
        # Last-chance hooks consulted when the queue drains with blocked
        # processes, before a DeadlockError is raised; see add_drain_hook.
        self._drain_hooks: list[Callable[[], bool]] = []
        #: lifetime number of resource grants on this engine: every
        #: :class:`~repro.sim.primitives.Resource` bumps it wherever it
        #: bumps its own ``total_grants``, and a macro replay adds the
        #: grants it mirrors, so it always equals the sum over resources
        self.grants = 0

        # The key source, shared by the closures below and the drain
        # loop's inlined resume: the bare sequence counter by default,
        # seeded random bits above it under a tiebreak seed (the counter
        # stays far below 2**48 — the event ceiling tops out around 5e8).
        nextseq = itertools.count(1).__next__
        if tiebreak_seed is None:
            mint = nextseq
        else:
            bits = random.Random(tiebreak_seed).getrandbits

            def mint() -> int:
                return bits(32) << 48 | nextseq()

        self._mint = mint
        bucket_get = buckets.get
        push = heapq.heappush

        def schedule_at(time: float, fn: Callable[[], None],
                        label: str = "") -> None:
            if not self._now <= time < _INF:
                raise ValueError(
                    f"schedule_at time must be >= now and finite, "
                    f"got {time!r} (now={self._now!r})"
                )
            key = mint()
            rec = (key, fn, label)
            b = bucket_get(time)
            if b is None:
                buckets[time] = [rec]
                push(times, time)
            elif key > b[-1][0]:
                b.append(rec)
            else:
                insort(b, rec)

        def schedule(delay: float, fn: Callable[[], None],
                     label: str = "") -> None:
            if not 0.0 <= delay < _INF:
                raise ValueError(
                    f"delay must be finite and >= 0, got {delay!r}"
                )
            schedule_at(self._now + delay, fn, label)

        def call_now(fn: Callable[[], None], label: str = "") -> None:
            schedule_at(self._now, fn, label)

        self.schedule = schedule
        self.call_now = call_now
        self.schedule_at = schedule_at

    # ------------------------------------------------------------------
    # Clock & queue
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (updated when a run returns)."""
        return self._events_processed

    @property
    def tiebreak_seed(self) -> Optional[int]:
        """The schedule-fuzzing seed, or ``None`` for insertion order."""
        return self._tiebreak_seed

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-undispatched events, *excluding* the
        rest of the batch being drained.

        A callback sees every later instant and every record scheduled
        into its own instant since its batch began, but not the
        undispatched remainder of its own batch.  The macro coordinator's
        quiet-window test relies on this: the members of a collective
        arriving in one batch must not count as foreign traffic, or no
        window would ever collapse.
        """
        return sum(map(len, self._buckets.values()))

    def pending_records(self) -> Iterator[tuple]:
        """The records :attr:`pending_events` counts, each ``(key, fn,
        label)``, instant by instant in no particular order.  A read-only
        view for the macro coordinator's sub-team window test, which
        asks what each pending record is; it must not schedule while
        iterating."""
        return itertools.chain.from_iterable(self._buckets.values())

    @property
    def next_time(self) -> Optional[float]:
        """Timestamp of the earliest pending instant, or ``None``."""
        times = self._times
        return times[0] if times else None

    # ------------------------------------------------------------------
    # Blocked-process bookkeeping (for deadlock diagnostics)
    # ------------------------------------------------------------------
    @property
    def blocked_count(self) -> int:
        """Number of blocked processes: parked or waiting on a cell or
        an event."""
        return len(self._blocked)

    @property
    def blocked_descriptions(self) -> list[str]:
        """Descriptions of currently blocked processes (ordered by block time)."""
        return [proc.blocked_description() for proc in self._blocked]

    @property
    def blocked_details(self) -> list[Any]:
        """:class:`~repro.sim.process.BlockedInfo` records of currently
        blocked processes (ordered by block time)."""
        return [proc.blocked_info() for proc in self._blocked]

    # ------------------------------------------------------------------
    # Drain hooks (macro-event fallback)
    # ------------------------------------------------------------------
    def add_drain_hook(self, hook: Callable[[], bool]) -> None:
        """Register a last-chance hook run when the queue drains while
        processes are still blocked, *before* a DeadlockError is raised.

        A hook returns ``True`` if it made progress (woke a process,
        scheduled an event) — the run loop then resumes draining — and
        ``False`` when it has nothing left to do.  Hooks must converge:
        a hook that keeps returning ``True`` without changing state
        livelocks the run.  Macro-events use this to demote incomplete
        macro gathers to the fine-grained path so that a *genuine*
        deadlock (an image that never arrives) reproduces the exact
        fine-grained diagnostics.
        """
        self._drain_hooks.append(hook)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains, or until the next instant
        lies past ``until`` (the clock then stops at ``until``).

        ``until`` must not lie before :attr:`now` (``inf`` is allowed).
        Returns the final simulated time.  If the queue drains while
        processes are still registered as blocked, drain hooks get one
        last chance to make progress (see :meth:`add_drain_hook`); if
        none does, raises :class:`~repro.sim.errors.DeadlockError` —
        silence is never mistaken for success.
        """
        if self._running:
            raise RuntimeError("Engine.run() is not reentrant")
        horizon = _INF if until is None else until
        if not self._now <= horizon:
            raise ValueError(
                f"run(until=...) must be >= now, got {until!r} "
                f"(now={self._now!r})"
            )
        self._running = True
        try:
            while True:
                if self._drain(horizon):
                    self._now = horizon
                    return horizon
                if not (self._blocked and self._drain_hooks):
                    break
                # every hook runs (no short-circuit); any progress resumes
                if not any([hook() for hook in list(self._drain_hooks)]):
                    break
            if self._blocked:
                raise DeadlockError(self.blocked_descriptions,
                                    details=self.blocked_details)
            return self._now
        finally:
            self._running = False

    def _drain(self, until: float) -> bool:
        """Dispatch instants in time order while the next one is at or
        before ``until``; True if it stopped with a later instant pending.

        A :class:`~repro.sim.process.Process` record gets its no-value
        resume inlined.  A holding process is its own completion record,
        so the resume first releases the resource in ``_holding`` (which
        may grant and schedule the next holder), then runs the finished
        guard (a killed holder still releases on schedule) and the
        generator send.  The two commands that reschedule the process
        itself go straight into the target bucket, both validated at
        construction: a ``Timeout`` under the process's timeout label,
        and a ``Hold`` on a resource with a free unit, granted here
        exactly as :meth:`Resource.hold
        <repro.sim.primitives.Resource.hold>` grants it, under the
        resource's hold label (on a full resource the process queues as
        ``(duration, process)``).  That saves two Python frames per step
        on the hottest edges in the simulator.  Consecutive reschedules
        into one future instant reuse the last target bucket without a
        dict probe.  A trace or monitor wraps every dispatch, so either
        one turns the inline resume off: Process records then take the
        generic ``fn()`` branch, which carries the trace call, and
        :meth:`Process.__call__ <repro.sim.process.Process.__call__>`
        releases the held resource and steps through
        :meth:`Process.resume <repro.sim.process.Process.resume>`, the
        only other step path.  The dispatched count lives in a local
        until the loop exits, so :attr:`events_processed` is stale inside
        callbacks.
        """
        times = self._times
        buckets = self._buckets
        bucket_get = buckets.get
        bucket_pop = buckets.pop
        heappop = heapq.heappop
        heappush = heapq.heappush
        mint = self._mint
        trace = self.trace
        proc_cls = (_PROCESS_CLASS
                    if trace is None and self.monitor is None else None)
        timeout_cls = _TIMEOUT_CLASS
        hold_cls = _HOLD_CLASS
        max_events = self._max_events
        processed = self._events_processed
        t = 0.0
        batch: Any = None
        record: Any = None
        try:
            while times:
                t = times[0]
                if t > until:
                    return True
                heappop(times)
                batch = bucket_pop(t)
                self._now = t
                n = len(batch)
                if processed + n > max_events:
                    # Cold: the ceiling falls inside this batch.  Requeue
                    # the records past it; the requeued batch then trips
                    # the ceiling at its first record, which the handler
                    # below counts and drops.
                    k = max_events - processed
                    if k == 0:
                        record = batch[0]
                        raise SimulationLimitExceeded(
                            f"exceeded max_events={max_events} at t={t:.9f}s"
                        )
                    buckets[t] = batch[k:]
                    heappush(times, t)
                    del batch[k:]
                    n = k
                last_t2 = -1.0
                last_b: Any = None
                for record in batch:
                    fn = record[1]
                    if fn.__class__ is not proc_cls:
                        if trace is not None and record[2]:
                            trace(t, record[2])
                        fn()
                        continue
                    # -- inlined Process.__call__ (no-value resume) --
                    res = fn._holding
                    if res is not None:
                        fn._holding = None
                        res.release()
                    if fn._finished:
                        continue  # fail-stopped/completed: stale wake
                    try:
                        command = fn._send(None)
                    except StopIteration as stop:
                        fn._finished = True
                        fn.done.trigger(stop.value)
                        continue
                    except Exception as exc:  # noqa: BLE001 - wrap model bugs
                        fn._finished = True
                        raise ProcessFailure(fn.name, exc) from exc
                    cls = command.__class__
                    if cls is timeout_cls:
                        t2 = t + command.delay
                        label = fn._timeout_label
                    elif cls is hold_cls:
                        res = command.resource
                        if res._in_use >= res.capacity:
                            res._enqueue(command.duration, fn)
                            continue
                        res._in_use += 1
                        res._granted += 1
                        self.grants += 1
                        fn._holding = res
                        t2 = t + command.duration
                        label = res._hold_label
                    else:
                        fn._dispatch(command)
                        continue
                    key = mint()
                    rec = (key, fn, label)
                    if t2 != last_t2:
                        last_t2 = t2
                        last_b = bucket_get(t2)
                        if last_b is None:
                            last_b = buckets[t2] = [rec]
                            heappush(times, t2)
                            continue
                    if key > last_b[-1][0]:
                        last_b.append(rec)
                    else:
                        insort(last_b, rec)
                processed += n
                batch = None
            return False
        except BaseException:
            # Restore the undispatched remainder of the batch, ahead of
            # anything the failing event scheduled back at ``t``, so the
            # queue stays coherent for post-mortem inspection or a resumed
            # run.  The failing record is counted but dropped.
            if batch is not None:
                consumed = batch.index(record) + 1
                processed += consumed
                rest = batch[consumed:]
                if rest:
                    newer = bucket_get(t)
                    if newer is None:
                        buckets[t] = rest
                        heappush(times, t)
                    else:
                        newer[:0] = rest
            raise
        finally:
            self._events_processed = processed
