"""Fortran 2018 event variables (``event_type`` coarrays).

An event variable is a counting semaphore owned by one image:
``event post(ev[k])`` atomically increments image *k*'s count from any
image; ``event wait(ev, until_count=c)`` blocks the owner until its count
reaches *c*, then consumes (decrements) it.  The paper's runtime builds
its point-to-point notifications on the same counter machinery, so this
module is both a public feature and the substrate for ``sync images``.

Hierarchy awareness (the paper's §IV methodology applied to
notifications): on a hierarchy-aware, team-scoped variable, a cross-node
post is **leader-mediated** — the single interconnect message targets
the destination's *node leader*, whose conduit relays the bump to the
owner through a direct shared-memory store.  Node leaders thereby stay
the only interconnect endpoints (one NIC queue pair per node, as in the
two-level collectives), and intra-node posts never touch the conduit's
loopback path at all.  The sender→owner happens-before edge is
preserved across the relay: the delivery callback is wrapped against
the *original* source before the first hop is issued.

Fault integration (F2018): posts targeting a failed image raise/report
``STAT_FAILED_IMAGE`` instead of silently bumping a counter nobody will
ever consume, and waits on a team-scoped variable are failure-aware —
a teammate's fail-stop wakes the waiter with ``STAT_FAILED_IMAGE``
rather than leaving it starved forever.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterator, Optional

from ..faults.manager import FailedImageError
from ..sim import Cell, WaitFor
from .conduit import Conduit

__all__ = ["EventVar", "EVENT_NBYTES"]

EVENT_NBYTES = 8


class EventVar:
    """One event count per image.

    ``shared`` scopes the variable to one team (counts exist only for
    the team's members, under team-qualified names, and the hierarchy
    metadata enables leader-mediated posts); ``None`` gives the
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

        def _meta(p: int) -> dict:
            meta = {"kind": "event", "var": name}
            if shared is not None:
                meta["team"] = shared
                meta["index"] = shared.proc_to_index[p]
            return meta

        self._counts: Dict[int, Cell] = {
            p: Cell(engine, 0, name=f"{prefix}.count[{p}]", meta=_meta(p))
            for p in procs
        }
        # Posts consumed so far by each owner; count - consumed = pending.
        self._consumed: Dict[int, int] = {p: 0 for p in procs}

    def pending(self, proc: int) -> int:
        """Unconsumed posts at image ``proc`` (its ``event_query`` value)."""
        return self._counts[proc].value - self._consumed[proc]

    def _relay_leader(self, src_proc: int, dst_proc: int,
                      faults) -> Optional[int]:
        """The node leader that should mediate a post ``src → dst``, or
        ``None`` when the post goes direct: same node, unscoped or
        hierarchy-unaware variable, leader coincides with an endpoint,
        or the leader itself is dead (a dead mediator must not swallow
        live notifications)."""
        conduit = self._conduit
        shared = self.shared
        if shared is None or not conduit.hierarchy_aware:
            return None
        if conduit.route(src_proc, dst_proc).kind != "remote":
            return None
        hierarchy = shared.hierarchy
        dst_index = shared.proc_to_index[dst_proc]
        leader_proc = shared.proc_of(hierarchy.leader_of[dst_index])
        if leader_proc in (src_proc, dst_proc):
            return None
        if faults is not None and faults.is_failed(leader_proc):
            return None
        return leader_proc

    def post(self, src_proc: int, dst_proc: int, path: str = "auto",
             faults=None) -> Iterator:
        """``event post(ev[dst])`` issued by ``src_proc``; one-way costed.

        Raises :class:`~repro.faults.manager.FailedImageError` when the
        owner has fail-stopped (the caller maps it to ``stat=``).
        """
        if faults is not None and faults.is_failed(dst_proc):
            raise FailedImageError([dst_proc + 1])
        cell = self._counts[dst_proc]
        conduit = self._conduit

        def bump() -> None:
            cell.add(1)

        leader_proc = self._relay_leader(src_proc, dst_proc, faults)
        if leader_proc is None:
            yield from conduit.transfer(
                src_proc, dst_proc, EVENT_NBYTES,
                on_delivered=bump, path=path,
            )
            return

        # The relay's second hop completes through a delivery callback the
        # macro-event eligibility sweep cannot account for — pin all
        # subsequent barrier windows to the fine-grained path.
        conduit.note_async()

        # Leader-mediated cross-node post.  Wrap the final effect against
        # the ORIGINAL endpoints once, here: the fault filter must ask
        # whether the owner (not the leader) is dead, and the monitor
        # must draw the src→dst happens-before edge even though the
        # bytes arrive via the leader's core.
        final = bump
        if faults is not None:
            final = faults.filter_delivery(dst_proc, final)
        final = conduit.monitored_delivery(src_proc, dst_proc, final)
        # The leader's runtime forwards the bump with a direct
        # shared-memory store — the hierarchy-aware intra-node hop.
        relay = partial(conduit.forward,
                        conduit.route(leader_proc, dst_proc, "direct"),
                        EVENT_NBYTES, final)
        yield from conduit.transfer(
            src_proc, leader_proc, EVENT_NBYTES,
            on_delivered=relay, path="remote",
        )

    def wait(self, proc: int, until_count: int = 1, faults=None) -> Iterator:
        """``event wait(ev, until_count=c)`` at the owning image.

        Blocks until ``c`` unconsumed posts exist, then consumes them all
        (the F2015 semantics: the wait consumes ``until_count`` posts).
        On a team-scoped variable with a fault manager installed the
        wait is failure-aware: any teammate's fail-stop raises
        :class:`~repro.faults.manager.FailedImageError` (conservative —
        a starved wait cannot know *which* teammate owed it the post).
        """
        if until_count < 1:
            raise ValueError(f"until_count must be >= 1, got {until_count}")
        cell = self._counts[proc]
        threshold = self._consumed[proc] + until_count

        def pred(v, t=threshold):
            return v >= t

        if faults is None or self.shared is None:
            yield WaitFor(cell, pred)
        else:
            yield from faults.wait_interruptible(
                cell, pred,
                check=lambda: faults.check_team(self.shared),
            )
        self._consumed[proc] = threshold
