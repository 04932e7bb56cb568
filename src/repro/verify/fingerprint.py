"""One fingerprint of a run, and one check of the state a run leaves.

Every execution path of the simulator — macro-events on or off, a
traced engine, a monitored run, a pooled or cached task — must observe
the same run.  :func:`fingerprint` records everything a run is observed
by, and two paths agree when their fingerprints are equal (a
macro-replayed run spends fewer engine events, so it is compared
:meth:`~RunFingerprint.without_events`).

:func:`leftovers` lists what a run that ended cleanly left behind that
it should not have: a resource still held, a blocked or parked process,
an open macro gather or pending macro wake, a mailbox cell in any team.
Persistent counters (dissemination flags, cocounters, release flags)
are state by design and are not listed.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Tuple

__all__ = ["RunFingerprint", "fingerprint", "leftovers"]


@dataclass(frozen=True)
class RunFingerprint:
    """What a run is observed by, compared field for field."""

    #: simulated end time
    time: float
    #: sha256 of the pickled per-image results
    results: str
    #: (inter messages, inter bytes, intra messages, intra bytes)
    traffic: Tuple[int, int, int, int]
    #: the conduit's message counts per path, sorted by path
    conduit: Tuple[Tuple[str, int], ...]
    #: (name, grants, peak queue, in use) per fabric resource
    resources: Tuple[Tuple[str, int, int, int], ...]
    #: the engine's lifetime grant counter
    grants: int
    #: engine events processed (None once dropped by :meth:`without_events`)
    events: Optional[int]

    def without_events(self) -> "RunFingerprint":
        return replace(self, events=None)

    def diff(self, other: "RunFingerprint") -> List[str]:
        """Names of the fields on which ``other`` differs."""
        return [f.name for f in fields(self)
                if getattr(self, f.name) != getattr(other, f.name)]


def fingerprint(result) -> RunFingerprint:
    """The :class:`RunFingerprint` of a finished
    :class:`~repro.runtime.program.SpmdResult`."""
    world = result.world
    t = result.traffic
    return RunFingerprint(
        time=result.time,
        results=hashlib.sha256(
            pickle.dumps(result.results, protocol=4)).hexdigest(),
        traffic=(t.inter_messages, t.inter_bytes, t.intra_messages,
                 t.intra_bytes),
        conduit=tuple(sorted(world.conduit.counts.items())),
        resources=tuple((r.name, r.total_grants, r.peak_queue, r.in_use)
                        for r in world.resources()),
        grants=world.engine.grants,
        events=world.engine.events_processed,
    )


def leftovers(world) -> List[str]:
    """One line per piece of state a clean run must not leave behind;
    empty when there is none."""
    out = [f"resource {r.name} still in use ({r.in_use})"
           for r in world.resources() if r.in_use]
    out += [f"process still blocked: {d}"
            for d in world.engine.blocked_descriptions]
    macro = world.macro
    out += [f"macro gather still open: {key}" for key in macro._gathers]
    if macro._pending_wakes:
        out.append(f"{macro._pending_wakes} macro wake(s) still pending")
    teams = [world.initial_shared]
    for team in teams:
        teams.extend(team.children)
        out += [f"mailbox cell left: t{team.uid}.mail[{index}]{tag}"
                for index, tag in team._mail_cells]
    return out
