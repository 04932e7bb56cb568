"""Fortran 2008 atomic operations on remote integer variables.

An :class:`AtomicVar` is the runtime object behind a scalar coarray of
``integer(atomic_int_kind)``: one watched integer cell per image.  The
non-fetching operations (``atomic_add``/``and``/``or``/``xor``/
``define``) are one-way — a single costed transfer whose delivery applies
the update at the target.  Fetching operations (``atomic_fetch_add``,
``atomic_cas``) additionally pay the return trip, matching the extra
network transaction a fetch costs on real RDMA hardware.

The simulation kernel is single-threaded, so target-side read-modify-
write is intrinsically atomic; what the model charges is the *time*.
The update is applied at delivery time (not issue time), so two images
racing to increment a counter interleave exactly as their messages land.

These cells double as the wait-target for the runtime's counter-based
synchronization: barrier cocounters and event counts are AtomicVars.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator

from ..sim import Cell, SimEvent, Wait
from .conduit import Conduit

__all__ = ["AtomicVar", "ATOMIC_OPS", "ATOMIC_NBYTES"]

#: every atomic payload is one integer word
ATOMIC_NBYTES = 8

#: name → binary integer operation applied at the target
ATOMIC_OPS: dict[str, Callable[[int, int], int]] = {
    "add": operator.add,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}


class AtomicVar:
    """One atomic integer per image, addressable by global proc id."""

    def __init__(self, conduit: Conduit, name: str, initial: int = 0):
        self._conduit = conduit
        self.name = name
        engine = conduit.machine.engine
        self._cells = [
            Cell(engine, initial, name=f"{name}[{p}]",
                 meta={"kind": "atomic", "var": name, "proc": p})
            for p in range(conduit.machine.num_images)
        ]

    def cell(self, proc: int) -> Cell:
        """The watched cell backing image ``proc``'s variable (for WaitFor)."""
        return self._cells[proc]

    def value(self, proc: int) -> int:
        """atomic_ref: local read of image ``proc``'s value (zero cost —
        reads of one's own atomic are plain loads)."""
        return self._cells[proc].value

    # ------------------------------------------------------------------
    # One-way operations
    # ------------------------------------------------------------------
    def update(
        self,
        src_proc: int,
        dst_proc: int,
        op: str,
        value: int,
        path: str = "auto",
    ) -> Iterator:
        """``atomic_<op>`` on ``dst_proc``'s variable, issued by ``src_proc``.

        Generator; returns at source-side completion.  The update lands at
        the target at delivery time.
        """
        fn = ATOMIC_OPS.get(op)
        if fn is None:
            raise ValueError(f"unknown atomic op {op!r}; have {sorted(ATOMIC_OPS)}")
        cell = self._cells[dst_proc]

        def apply() -> None:
            cell.update(lambda old: fn(old, value))

        yield from self._conduit.transfer(
            src_proc, dst_proc, ATOMIC_NBYTES, on_delivered=apply, path=path
        )

    def define(
        self, src_proc: int, dst_proc: int, value: int, path: str = "auto"
    ) -> Iterator:
        """``atomic_define``: plain store of ``value`` at the target."""
        cell = self._cells[dst_proc]
        yield from self._conduit.transfer(
            src_proc, dst_proc, ATOMIC_NBYTES,
            on_delivered=lambda: cell.set(value), path=path,
        )

    # ------------------------------------------------------------------
    # Fetching operations (round trip)
    # ------------------------------------------------------------------
    def fetch_update(
        self,
        src_proc: int,
        dst_proc: int,
        op: str,
        value: int,
        path: str = "auto",
    ) -> Iterator:
        """``atomic_fetch_<op>``: apply at target, return the OLD value.

        Generator whose value (via ``yield from``) is the fetched integer.
        """
        fn = ATOMIC_OPS.get(op)
        if fn is None:
            raise ValueError(f"unknown atomic op {op!r}; have {sorted(ATOMIC_OPS)}")
        cell = self._cells[dst_proc]
        engine = self._conduit.machine.engine
        reply = SimEvent(engine, name=f"{self.name}.fetch")
        fetched: list[int] = []

        def apply() -> None:
            old = cell.value
            fetched.append(old)
            cell.update(lambda _old: fn(_old, value))

        yield from self._conduit.transfer(
            src_proc, dst_proc, ATOMIC_NBYTES, on_delivered=apply, path=path
        )
        # The fetched value travels back target → source.
        yield from self._conduit.transfer(
            dst_proc, src_proc, ATOMIC_NBYTES,
            on_delivered=lambda: reply.trigger(fetched[0]), path="auto",
        )
        result = yield Wait(reply)
        return result

    def compare_and_swap(
        self,
        src_proc: int,
        dst_proc: int,
        expected: int,
        desired: int,
        path: str = "auto",
    ) -> Iterator:
        """``atomic_cas``: swap iff current == expected; returns the old value."""
        cell = self._cells[dst_proc]
        engine = self._conduit.machine.engine
        reply = SimEvent(engine, name=f"{self.name}.cas")
        fetched: list[int] = []

        def apply() -> None:
            old = cell.value
            fetched.append(old)
            if old == expected:
                cell.update(lambda _old: desired)

        yield from self._conduit.transfer(
            src_proc, dst_proc, ATOMIC_NBYTES, on_delivered=apply, path=path
        )
        yield from self._conduit.transfer(
            dst_proc, src_proc, ATOMIC_NBYTES,
            on_delivered=lambda: reply.trigger(fetched[0]), path="auto",
        )
        result = yield Wait(reply)
        return result
