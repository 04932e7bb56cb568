"""Fortran 2008/2018 lock variables (``lock_type`` coarrays).

``lock(l[k])`` / ``unlock(l[k])`` give images mutual exclusion over a
lock living on image *k*.  The implementation is the one a one-sided
runtime actually uses: a remote compare-and-swap on the home image's
lock word.  A failed acquisition does **not** poll with backoff — the
contender blocks on the lock word *cell* and retries when the word
changes (a release wakes exactly the waiters, like a futex), so lock
hand-off is deterministic and visible to deadlock analysis: a stuck
acquire names the lock, its home image, and the current holder.

Fault integration (F2018):

* the home image fail-stopping raises/reports ``STAT_FAILED_IMAGE``
  (entry check before each CAS, and the blocked wait watches the
  failure epoch through
  :meth:`~repro.faults.manager.FaultManager.wait_interruptible`);
* a *holder* fail-stopping mid-critical leaves its word behind; the
  next acquirer CASes the dead holder's word out and succeeds with
  ``STAT_UNLOCKED_FAILED_IMAGE`` — the standard's signal that the
  protected state may be inconsistent.

The F2008 rules are enforced: acquiring a lock the caller already holds
is ``STAT_LOCKED`` and releasing a lock it does not hold is
``STAT_UNLOCKED`` (raised as :class:`~repro.faults.manager.LockError`
when no ``stat=`` is supplied — OpenUH aborts by default).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..faults.manager import (
    STAT_LOCKED,
    STAT_OK,
    STAT_UNLOCKED,
    STAT_UNLOCKED_FAILED_IMAGE,
    FailedImageError,
    LockError,
)
from ..sim import Cell, SimEvent, Wait, WaitFor
from .conduit import Conduit

__all__ = ["LockVar", "LOCK_NBYTES"]

#: every lock message is one integer word
LOCK_NBYTES = 8

#: lock word states: 0 = free, otherwise holder's (proc + 1)
_FREE = 0


class LockVar:
    """One lock word per image, acquired with remote CAS.

    ``shared`` scopes the variable to one team (cells exist only for the
    team's members, under team-qualified names); ``None`` gives the
    historical global variable spanning every image.
    """

    def __init__(self, conduit: Conduit, name: str, shared=None):
        self._conduit = conduit
        self.name = name
        self.shared = shared
        engine = conduit.machine.engine
        if shared is None:
            procs = list(range(conduit.machine.num_images))
            prefix = name
        else:
            procs = list(shared.members)
            prefix = f"t{shared.uid}.{name}"
        self._cells: Dict[int, Cell] = {
            p: Cell(
                engine, _FREE, name=f"{prefix}.lock[{p}]",
                meta={"kind": "lock", "var": name, "home": p},
            )
            for p in procs
        }
        # (holder proc, lock-home proc) pairs this runtime knows are held;
        # used to enforce the standard's already-held / not-held errors.
        self._held: Dict[Tuple[int, int], bool] = {}

    def holder(self, home_proc: int) -> int:
        """Current holder's proc id, or -1 if free (debug/test hook)."""
        value = self._cells[home_proc].value
        return value - 1 if value != _FREE else -1

    def _cas(self, my_proc: int, home_proc: int,
             expected: int, desired: int) -> Iterator:
        """Remote CAS on the home's lock word; returns the old value, or
        ``None`` when the home image died and the fetch never happened
        (its target-side effects were suppressed at the conduit)."""
        cell = self._cells[home_proc]
        engine = self._conduit.machine.engine
        reply = SimEvent(engine, name=f"{self.name}.lockcas")
        fetched: list = []

        def apply() -> None:
            old = cell.value
            fetched.append(old)
            if old == expected:
                cell.update(lambda _old: desired)

        yield from self._conduit.transfer(
            my_proc, home_proc, LOCK_NBYTES, on_delivered=apply, path="auto"
        )
        yield from self._conduit.transfer(
            home_proc, my_proc, LOCK_NBYTES,
            on_delivered=lambda: reply.trigger(
                fetched[0] if fetched else None
            ),
            path="auto",
        )
        result = yield Wait(reply)
        return result

    def acquire(self, my_proc: int, home_proc: int, blocking: bool = True,
                faults=None) -> Iterator:
        """``lock(l[home])``: CAS, block on the word until it changes.

        Generator returning ``(acquired, code, failed_indices)`` where
        ``code`` is :data:`~repro.faults.STAT_OK`,
        :data:`~repro.faults.STAT_LOCKED` (non-blocking, contended), or
        :data:`~repro.faults.STAT_UNLOCKED_FAILED_IMAGE` (acquired by
        taking over a fail-stopped holder's word).  Error conditions
        raise :class:`~repro.faults.manager.LockError` /
        :class:`~repro.faults.manager.FailedImageError`; the caller maps
        them to ``stat=`` or lets them terminate.
        """
        if self._held.get((my_proc, home_proc)):
            raise LockError(
                f"image {my_proc + 1} already holds lock {self.name!r} "
                f"on image {home_proc + 1} (STAT_LOCKED)",
                code=STAT_LOCKED,
            )
        cell = self._cells[home_proc]
        expected = _FREE
        while True:
            if faults is not None and faults.is_failed(home_proc):
                raise FailedImageError([home_proc + 1])
            old = yield from self._cas(
                my_proc, home_proc, expected=expected, desired=my_proc + 1
            )
            if old is None:
                # home died mid-CAS: the fetch was suppressed at the
                # dead target, so there is no lock left to acquire
                raise FailedImageError([home_proc + 1])
            if old == expected:
                taken_from: tuple = ()
                if expected != _FREE:
                    # we replaced a fail-stopped holder's word
                    self._held.pop((expected - 1, home_proc), None)
                    taken_from = (expected,)
                self._held[(my_proc, home_proc)] = True
                monitor = self._conduit.machine.engine.monitor
                hook = getattr(monitor, "on_acquire", None)
                if hook is not None:
                    # first-try acquisitions never block on the cell, so
                    # the HB edge from the releaser must be drawn here
                    hook(cell, my_proc)
                if taken_from:
                    return True, STAT_UNLOCKED_FAILED_IMAGE, taken_from
                return True, STAT_OK, ()
            # contended: old is the current holder's (proc + 1)
            if (faults is not None and old != _FREE
                    and faults.is_failed(old - 1)):
                # holder is dead — retry expecting its stale word
                expected = old
                continue
            if not blocking:
                return False, STAT_LOCKED, ()
            if faults is None:
                yield WaitFor(cell, lambda v, cur=old: v != cur)
                expected = _FREE
            else:
                def pred(v, cur=old):
                    return v != cur or (v != _FREE
                                        and faults.is_failed(v - 1))

                yield from faults.wait_interruptible(
                    cell, pred,
                    check=lambda: faults.check_images([home_proc]),
                )
                value = cell.value
                if (value != _FREE and faults.is_failed(value - 1)):
                    expected = value
                else:
                    expected = _FREE

    def release(self, my_proc: int, home_proc: int) -> Iterator:
        """``unlock(l[home])``: verify ownership, then remote store."""
        if not self._held.get((my_proc, home_proc)):
            raise LockError(
                f"image {my_proc + 1} does not hold lock {self.name!r} "
                f"on image {home_proc + 1} (STAT_UNLOCKED)",
                code=STAT_UNLOCKED,
            )
        del self._held[(my_proc, home_proc)]
        cell = self._cells[home_proc]
        # RMW (not a plain store): hand-off order is whatever delivery
        # order the schedule produced — never a WAW race by construction.
        yield from self._conduit.transfer(
            my_proc, home_proc, LOCK_NBYTES,
            on_delivered=lambda: cell.update(lambda _old: _FREE),
            path="auto",
        )
