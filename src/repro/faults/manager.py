"""Runtime side of fault injection: fail-stop execution, failure-aware
waits, and the ``stat=`` / ``failed images`` semantics of Fortran 2018.

The :class:`FaultManager` is owned by the
:class:`~repro.runtime.program.World` (one per run, or ``None`` when no
fault schedule is installed).  It plays four roles:

1. **Executioner** — :meth:`FaultManager.arm` schedules one engine event
   per planned fail-stop; at that instant the image's
   :class:`~repro.sim.process.Process` is killed mid-generator, its
   deadlock bookkeeping retired, and its result pinned to the
   :data:`FAILED` sentinel.  The failed image never runs again, and the
   mailboxes of every team it belongs to are dropped
   (:meth:`~repro.teams.team.TeamShared.close_data_plane`).
2. **Oracle** — ``image_status()`` / ``failed_images()`` and the per-team
   :meth:`check_team` entry check read the failed set.
3. **Gatekeeper at the conduit** — :meth:`filter_delivery` suppresses
   target-side completion effects of messages addressed to a dead image
   (the bytes still cross the wire; nobody is home to act on them), and
   :meth:`link_delay` charges the seeded drop/delay jitter.
4. **Waker** — every synchronization wait in the runtime funnels through
   :func:`wait_or_fail` (or :meth:`wait_interruptible`), which blocks on
   *either* the awaited cell *or* the failure ``epoch`` cell.  When an
   image dies, the epoch bump wakes every blocked survivor, whose
   re-check raises :class:`FailedImageError` — survivors observe
   ``STAT_FAILED_IMAGE`` at their next synchronization instead of
   hanging, exactly the standard's promise.

With no manager installed, :func:`wait_or_fail` degenerates to yielding
the plain ``WaitFor`` command — the fault-free path is byte-identical to
a build without this package.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

from ..sim.engine import Engine
from ..sim.primitives import Cell, SimEvent
from ..sim.process import Process, Wait, WaitFor
from .schedule import FaultSchedule

__all__ = [
    "STAT_OK", "STAT_FAILED_IMAGE", "STAT_STOPPED_IMAGE", "STAT_LOCKED",
    "STAT_UNLOCKED", "STAT_UNLOCKED_FAILED_IMAGE", "FAILED", "Stat",
    "ImageControlError", "FailedImageError", "StoppedImageError",
    "LockError", "ImageLiveness", "FaultManager", "wait_or_fail",
]

#: ``stat=`` value of a successful operation.
STAT_OK = 0
#: ``stat=`` value reported when a team member has failed — the
#: reproduction's stand-in for Fortran 2018's ``STAT_FAILED_IMAGE``
#: constant from ``ISO_FORTRAN_ENV``.
STAT_FAILED_IMAGE = 101
#: ``stat=`` value when an involved image has initiated normal
#: termination (F2018 ``STAT_STOPPED_IMAGE``) — distinct from fail-stop.
STAT_STOPPED_IMAGE = 102
#: ``lock`` on a variable the acquirer already holds, or a contended
#: non-blocking acquire (F2008 ``STAT_LOCKED``).
STAT_LOCKED = 103
#: ``unlock`` of a variable the caller does not hold (``STAT_UNLOCKED``).
STAT_UNLOCKED = 104
#: Lock acquired after its previous holder fail-stopped without
#: unlocking (F2018 ``STAT_UNLOCKED_FAILED_IMAGE``).
STAT_UNLOCKED_FAILED_IMAGE = 105

#: Per-image result recorded for an image killed by fail-stop injection.
FAILED = "<failed image>"

_STAT_NAMES = {
    STAT_OK: "STAT_OK",
    STAT_FAILED_IMAGE: "STAT_FAILED_IMAGE",
    STAT_STOPPED_IMAGE: "STAT_STOPPED_IMAGE",
    STAT_LOCKED: "STAT_LOCKED",
    STAT_UNLOCKED: "STAT_UNLOCKED",
    STAT_UNLOCKED_FAILED_IMAGE: "STAT_UNLOCKED_FAILED_IMAGE",
}


class ImageControlError(RuntimeError):
    """Base of every image-control error condition the runtime can map to
    a ``stat=`` code: a statement executed without ``STAT=`` raises one
    of these; with ``STAT=`` the same condition is caught and mirrored
    into the :class:`Stat`.  ``code`` is the stat constant; the indices
    name the images the condition is about.
    """

    code: int = STAT_FAILED_IMAGE

    def __init__(self, message: str,
                 failed_indices: Sequence[int] = (),
                 team_number: Optional[int] = None):
        self.failed_indices: List[int] = sorted(failed_indices)
        self.team_number = team_number
        super().__init__(message)


class FailedImageError(ImageControlError):
    """A synchronization or collective involved a failed image and no
    ``stat=`` was supplied — the analogue of Fortran's error termination
    when ``STAT=`` is absent.  ``failed_indices`` are team-relative
    (1-based) when ``team_number`` is set, global image indices otherwise.
    """

    code = STAT_FAILED_IMAGE

    def __init__(self, failed_indices: Sequence[int],
                 team_number: Optional[int] = None):
        indices = sorted(failed_indices)
        names = ", ".join(f"image{i}" for i in indices)
        where = (f"in team#{team_number}" if team_number is not None
                 else "among the awaited images")
        super().__init__(
            f"STAT_FAILED_IMAGE: failed image(s) {names} {where}",
            failed_indices=indices, team_number=team_number,
        )


class StoppedImageError(ImageControlError):
    """An image-control statement involved an image that has initiated
    normal termination.  Same indexing convention as
    :class:`FailedImageError`; ``failed_indices`` holds the stopped ones.
    """

    code = STAT_STOPPED_IMAGE

    def __init__(self, stopped_indices: Sequence[int],
                 team_number: Optional[int] = None):
        indices = sorted(stopped_indices)
        names = ", ".join(f"image{i}" for i in indices)
        where = (f"in team#{team_number}" if team_number is not None
                 else "among the involved images")
        super().__init__(
            f"STAT_STOPPED_IMAGE: stopped image(s) {names} {where}",
            failed_indices=indices, team_number=team_number,
        )


class LockError(ImageControlError):
    """A ``lock``/``unlock`` error condition (``STAT_LOCKED``,
    ``STAT_UNLOCKED``, or ``STAT_UNLOCKED_FAILED_IMAGE``).  The code is
    per-instance, unlike the class-level codes above."""

    def __init__(self, message: str, code: int,
                 failed_indices: Sequence[int] = ()):
        super().__init__(message, failed_indices=failed_indices)
        self.code = code


class Stat:
    """Mutable mirror of a Fortran ``stat=`` specifier.

    Pass one to any ``sync_*`` / ``co_*`` / image-control call;
    afterwards ``code`` is :data:`STAT_OK` or one of the error constants
    (:data:`STAT_FAILED_IMAGE`, :data:`STAT_STOPPED_IMAGE`,
    :data:`STAT_LOCKED`, ...) and ``failed_indices`` names the
    failed/stopped participants the operation observed.  Without a
    ``Stat``, the same condition raises an :class:`ImageControlError`.
    """

    __slots__ = ("code", "failed_indices")

    def __init__(self) -> None:
        self.code: int = STAT_OK
        self.failed_indices: tuple = ()

    @property
    def ok(self) -> bool:
        return self.code == STAT_OK

    def _clear(self) -> None:
        self.code = STAT_OK
        self.failed_indices = ()

    def _set(self, err: ImageControlError) -> None:
        self.code = err.code
        self.failed_indices = tuple(err.failed_indices)

    # historical name, kept for callers predating the error hierarchy
    _set_failure = _set

    def __repr__(self) -> str:
        label = _STAT_NAMES.get(self.code, str(self.code))
        return f"Stat({label}, failed={list(self.failed_indices)})"


class ImageLiveness:
    """Tracks images that have initiated *normal* termination — the third
    image state of F2018 (``STAT_STOPPED_IMAGE``), distinct from the
    fail-stops the :class:`FaultManager` tracks.  One per World; always
    present even in fault-free runs, because any image may simply return
    from its program while teammates keep synchronizing.
    """

    def __init__(self, num_images: int):
        self.num_images = num_images
        self._stopped: set = set()

    def mark_stopped(self, proc: int) -> None:
        """Record that 0-based ``proc`` completed its program normally."""
        self._stopped.add(proc)

    def is_stopped(self, proc: int) -> bool:
        return proc in self._stopped

    def stopped_team_indices(self, shared: Any) -> List[int]:
        """Team-relative 1-based indices of this team's stopped members."""
        p2i = shared.proc_to_index
        return sorted(p2i[p] for p in self._stopped if p in p2i)

    def check_team(self, shared: Any) -> None:
        """Raise :class:`StoppedImageError` if any team member stopped."""
        stopped = self.stopped_team_indices(shared)
        if stopped:
            raise StoppedImageError(stopped, shared.team_number)

    def check_images(self, procs: Iterable[int]) -> None:
        """Raise if any of the given 0-based procs has stopped."""
        stopped = sorted(p + 1 for p in procs if p in self._stopped)
        if stopped:
            raise StoppedImageError(stopped, team_number=None)


class _FaultWait(SimEvent):
    """Completion event of one failure-aware wait.

    Carries the underlying awaited cell so deadlock analysis
    (:mod:`repro.verify.deadlock`) can keep attributing the wait to the
    flag/mailbox it is really about rather than to an anonymous event.
    """

    __slots__ = ("cell",)


class FaultManager:
    """Executes a :class:`FaultSchedule` against one running World."""

    def __init__(self, engine: Engine, schedule: FaultSchedule,
                 num_images: int):
        for failure in schedule.failures:
            if failure.image > num_images:
                raise ValueError(
                    f"fault schedule fails image{failure.image} but the run "
                    f"has only {num_images} images"
                )
        self.engine = engine
        self.schedule = schedule
        self.num_images = num_images
        #: 0-based proc ids of images that have failed so far
        self._failed: set = set()
        #: bumped once per failure; every failure-aware wait watches it
        self.epoch = Cell(engine, 0, name="faults.epoch",
                          meta={"what": "failure epoch"})
        self._rng = random.Random(schedule.seed)
        #: root of the team tree whose data planes a failure closes
        #: (set by :meth:`arm`; None closes nothing)
        self._initial_team: Any = None

    # ------------------------------------------------------------------
    # Executioner
    # ------------------------------------------------------------------
    def arm(self, processes: Sequence[Process],
            initial_team: Any = None) -> None:
        """Schedule the planned fail-stops against the per-proc process
        list (index = 0-based proc id).  Called once by ``run_spmd``;
        ``initial_team`` roots the team tree whose data planes a
        failure closes."""
        self._initial_team = initial_team
        for failure in self.schedule.failures:
            proc = failure.image - 1
            self.engine.schedule(
                failure.time,
                lambda p=proc, pr=processes[proc]: self._fail_now(p, pr),
                label=f"fault.kill[image{failure.image}]",
            )

    def _fail_now(self, proc: int, process: Process) -> None:
        if proc in self._failed or process.finished:
            # already dead, or the image completed before its planned
            # failure time — a completed image cannot fail-stop
            return
        self._failed.add(proc)
        # Kill first, then bump the epoch: the victim must be incapable of
        # resuming before any survivor is woken to observe the failure.
        process.kill(result=FAILED)
        # No wait on a team the victim belongs to succeeds from now on,
        # so their mailboxes would never be read.
        teams = [self._initial_team] if self._initial_team is not None else []
        for team in teams:
            if proc in team.proc_to_index:
                team.close_data_plane()
                teams.extend(team.children)
        self.epoch.add(1)

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------
    def is_failed(self, proc: int) -> bool:
        return proc in self._failed

    @property
    def failed_procs(self) -> frozenset:
        return frozenset(self._failed)

    def failed_team_indices(self, shared: Any) -> List[int]:
        """Team-relative 1-based indices of this team's failed members."""
        p2i = shared.proc_to_index
        return sorted(p2i[p] for p in self._failed if p in p2i)

    def check_team(self, shared: Any) -> None:
        """Raise :class:`FailedImageError` if any member of the team has
        failed (the entry/re-check of every team-wide operation)."""
        failed = self.failed_team_indices(shared)
        if failed:
            raise FailedImageError(failed, shared.team_number)

    def check_images(self, procs: Iterable[int]) -> None:
        """Raise if any of the given 0-based procs has failed (used by
        ``sync images``, whose partner set is an explicit image list)."""
        failed = sorted(p + 1 for p in procs if p in self._failed)
        if failed:
            raise FailedImageError(failed, team_number=None)

    # ------------------------------------------------------------------
    # Conduit hooks
    # ------------------------------------------------------------------
    def filter_delivery(self, dst_proc: int,
                        on_delivered: Optional[Callable]) -> Optional[Callable]:
        """Suppress the target-side completion effect of a message
        addressed to a failed image.  The wire/NIC costs are still paid —
        the sender cannot tell the destination is dead — but no flag,
        mailbox, or coarray of the dead image advances."""
        if on_delivered is not None and dst_proc in self._failed:
            return None
        return on_delivered

    def link_delay(self, resolved_path: str) -> float:
        """Extra sender-visible latency for one message under the seeded
        drop/delay model.  Only inter-node (``remote``) messages ride the
        unreliable link; intra-node paths are memory traffic."""
        if resolved_path != "remote":
            return 0.0
        sched = self.schedule
        rng = self._rng
        extra = 0.0
        if sched.drop_rate > 0.0:
            retries = 0
            while (retries < sched.max_retransmits
                   and rng.random() < sched.drop_rate):
                retries += 1
            extra += retries * sched.retransmit_timeout
        if sched.delay_rate > 0.0 and rng.random() < sched.delay_rate:
            extra += rng.random() * sched.delay_max
        return extra

    # ------------------------------------------------------------------
    # Waker
    # ------------------------------------------------------------------
    def wait_interruptible(self, cell: Cell, pred: Callable[[Any], bool],
                           check: Callable[[], None]) -> Iterator:
        """Generator: block until ``pred(cell.value)`` *or* a failure.

        ``check()`` must raise (typically :class:`FailedImageError`) when
        the caller's liveness condition is broken; it runs before the
        first wait and again after every failure-epoch wake-up.  Hence a
        survivor blocked on a cell a dead image was supposed to write
        raises at the failure instant instead of deadlocking.
        """
        check()
        epoch = self.epoch
        engine = self.engine
        while not pred(cell.value):
            ev = _FaultWait(engine, name=f"faultwait:{cell.name}")
            ev.cell = cell
            keys: list = []

            def _fire(_value: Any, ev: SimEvent = ev, keys: list = keys) -> None:
                if ev.triggered:
                    return
                for watched, key in keys:
                    watched.cancel_wait(key)
                ev.trigger()

            current = epoch.value
            cell_key = cell.wait_until(pred, _fire)
            if cell_key is not None:
                keys.append((cell, cell_key))
                epoch_key = epoch.wait_until(
                    lambda v, c=current: v > c, _fire
                )
                if epoch_key is not None:
                    keys.append((epoch, epoch_key))
            yield Wait(ev)
            check()
        # parity with WaitFor: resume value is the satisfying cell value
        return cell.value

    def team_wait(self, shared: Any, cell: Cell,
                  pred: Callable[[Any], bool]) -> Iterator:
        """:meth:`wait_interruptible` with a whole-team liveness check."""
        return self.wait_interruptible(
            cell, pred, check=lambda: self.check_team(shared)
        )


def wait_or_fail(ctx: Any, view: Any, cell: Cell,
                 pred: Callable[[Any], bool]) -> Iterator:
    """The failure-aware ``WaitFor`` every collective blocks through.

    With no fault manager installed (``ctx.faults`` absent or ``None``)
    this yields the plain ``WaitFor(cell, pred)`` command — same command
    object, same wake-up instant, so fault-free schedules stay
    byte-identical to the pre-fault runtime.  With a manager, the wait
    also watches the failure epoch and raises :class:`FailedImageError`
    when a member of ``view``'s team dies.
    """
    faults = getattr(ctx, "faults", None)
    if faults is None:
        result = yield WaitFor(cell, pred)
        return result
    result = yield from faults.team_wait(view.shared, cell, pred)
    return result
