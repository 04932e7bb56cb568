"""Wait-for analysis of :class:`~repro.sim.errors.DeadlockError`.

The engine's deadlock report names the stuck processes and the primitive
each one waits on.  This module turns the structured ``details`` records
into an actual diagnosis: for every waiting image it infers *which images
were expected to notify it* (from the cell's ``meta`` — team, index,
round, variant — plus the team's
:class:`~repro.teams.hierarchy.HierarchyInfo`), then

* lists images that **exited without notifying** a waiter — the classic
  SPMD violation (one image skipped a collective);
* extracts **potential wait-for cycles** among the blocked images — the
  classic crossed-synchronization deadlock (A waits for B while B waits
  for A).

Use :func:`explain_deadlock` for the one-call pretty printer::

    try:
        run_spmd(main, ...)
    except DeadlockError as err:
        print(explain_deadlock(err))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from ..sim.errors import DeadlockError

__all__ = ["WaiterRecord", "DeadlockAnalysis", "analyze_deadlock", "explain_deadlock"]

#: dissemination variants whose participant set is the team's leader list
_LEADER_VARIANTS = ("tdlb-leaders", "tdlb3-leaders")


def _image(proc: Optional[int]) -> str:
    """Human name of a 0-based global proc."""
    return f"image{proc + 1}" if isinstance(proc, int) else "<anonymous>"


def _global_image(team: Any, index: int) -> int:
    """1-based global image number of ``index`` (1-based) within ``team``."""
    return team.members[index - 1] + 1


@dataclass
class WaiterRecord:
    """One blocked image and what (we infer) it was waiting for."""

    #: 1-based global image number, or None for anonymous processes
    image: Optional[int]
    process: str
    kind: str
    target_name: str
    #: current value of the waited-on cell (None for events and parks)
    value: Any
    #: human-readable location context (team/owner/node/leader), may be ""
    context: str
    #: 1-based global images expected to notify this waiter (None = unknown)
    expects: Optional[List[int]]


@dataclass
class DeadlockAnalysis:
    """Structured diagnosis of one deadlock."""

    waiters: List[WaiterRecord]
    #: 1-based global images that are blocked
    blocked: List[int]
    #: expected notifiers that are not blocked — they exited early
    missing: List[int]
    #: potential wait-for cycles among blocked images (each a closed walk)
    cycles: List[List[int]]
    #: 1-based global images the caller reported as fail-stopped by fault
    #: injection (see :mod:`repro.faults`)
    failed: List[int] = field(default_factory=list)
    #: blocked images whose expected notifiers include a failed image —
    #: their hang is attributed to the injected failure, not a logic bug
    fault_attributed: List[int] = field(default_factory=list)

    def render(self) -> str:
        failed_set = set(self.failed)
        lines = [
            f"deadlock wait-for analysis: {len(self.blocked)} image(s) blocked, "
            f"{len(self.missing)} image(s) exited without notifying a waiter"
        ]
        lines.append("blocked:")
        for w in self.waiters:
            who = f"image{w.image}" if w.image is not None else w.process
            desc = f"  {who} waits on {w.kind} {w.target_name!r}"
            if w.context:
                desc += f" [{w.context}]"
            if w.value is not None:
                desc += f" value={w.value}"
            if w.expects is None:
                desc += "; expected notifiers: unknown"
            elif w.expects:
                desc += "; expected notifiers: " + ", ".join(
                    f"image{i}" + (" (FAILED)" if i in failed_set else "")
                    for i in w.expects
                )
            else:
                desc += "; expected notifiers: none (self-satisfying wait)"
            lines.append(desc)
        if self.missing:
            lines.append(
                "exited before notifying: "
                + ", ".join(f"image{i}" for i in self.missing)
            )
        for cycle in self.cycles:
            walk = " -> ".join(f"image{i}" for i in cycle + cycle[:1])
            lines.append(f"potential wait-for cycle: {walk}")
        if self.failed:
            lines.append(
                "injected fail-stops: "
                + ", ".join(f"image{i}" for i in self.failed)
            )
            if self.fault_attributed:
                lines.append(
                    "residual hang attributed to the injected failure(s): "
                    + ", ".join(f"image{i}" for i in self.fault_attributed)
                    + " wait(s) on a failed notifier"
                )
        if not self.missing and not self.cycles:
            lines.append("no cycle found among blocked images")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Expected-notifier inference per cell kind
# ----------------------------------------------------------------------
def _diss_writers(meta: dict) -> Optional[List[int]]:
    team = meta["team"]
    index = meta["index"]
    round_ = meta["round"]
    variant = meta["variant"]
    h = team.hierarchy
    n = team.size
    if variant in _LEADER_VARIANTS:
        participants = list(h.leaders)
    elif variant == "linear-arrive":
        # The linear barrier's leader counts every other member in.
        return sorted(_global_image(team, i)
                      for i in range(1, n + 1) if i != index)
    elif variant == "linear-release":
        # ... and releases each of them itself.
        return [_global_image(team, 1)]
    elif variant.startswith("tdlb3"):
        # Socket-tier counters are shared by several roles; any intranode
        # peer may be the notifier.
        peers = h.intranode_peers(index)
        return sorted(_global_image(team, i) for i in peers if i != index)
    else:
        participants = list(range(1, n + 1))
    if index not in participants:
        return None
    rank = participants.index(index)
    dist = 1 << round_
    writer = participants[(rank - dist) % len(participants)]
    return [_global_image(team, writer)]


def _expected_writers(meta: Optional[dict],
                      value: Any = None) -> Optional[List[int]]:
    """1-based global images expected to write the cell, or None if the
    cell carries no usable metadata.  ``value`` is the cell's current
    value when the caller has it — a lock word *is* its holder, so the
    expected notifier of a stuck acquire is whoever holds the lock."""
    if not meta:
        return None
    kind = meta.get("kind")
    if kind == "syncimg":
        return [meta["notifier"] + 1]
    if kind == "diss":
        return _diss_writers(meta)
    if kind == "lock":
        # lock word: 0 = free, else the holder's 1-based global image.
        # A waiter blocked on a free word is about to retry (transient);
        # report no notifier rather than a wrong one.
        if isinstance(value, int) and value > 0:
            return [int(value)]
        return None
    team = meta.get("team")
    if team is None:
        return None
    index = meta.get("index")
    h = team.hierarchy
    if kind == "event":
        # Any teammate may post; a starved wait can only name them all.
        return sorted(_global_image(team, i)
                      for i in range(1, team.size + 1) if i != index)
    if kind == "cocounter":
        # TDLB's step 1: the leader's intranode slaves arrive.
        return sorted(_global_image(team, i) for i in h.slaves_of(index))
    if kind == "release":
        # TDLB's step 3: the node leader releases its slaves.
        return [_global_image(team, h.leader_of[index])]
    if kind == "mail":
        return sorted(_global_image(team, i) for i in range(1, team.size + 1)
                      if i != index)
    return None


def _cell_context(meta: Optional[dict]) -> str:
    if not meta:
        return ""
    kind = meta.get("kind", "?")
    if kind == "syncimg":
        return (f"pairwise sync {_image(meta['notifier'])}"
                f"->{_image(meta['waiter'])}")
    if kind == "lock":
        return f"lock {meta['var']!r}, home {_image(meta['home'])}"
    team = meta.get("team")
    if team is None:
        return kind
    index = meta.get("index")
    h = team.hierarchy
    owner = _global_image(team, index)
    leader = _global_image(team, h.leader_of[index])
    return (f"{kind}, team#{team.team_number} size {team.size}, "
            f"owner image{owner}, node {h.node_of[index]}, "
            f"leader image{leader}")


# ----------------------------------------------------------------------
def _find_cycles(edges: Dict[int, Set[int]]) -> List[List[int]]:
    """Strongly connected components of size > 1 (or a self-loop),
    each rotated to start at its smallest image — Tarjan, iterative."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    counter = [0]
    sccs: List[List[int]] = []

    def strongconnect(root: int) -> None:
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in edges:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges.get(node, ()):
                    sccs.append(sorted(component))

    for node in sorted(edges):
        if node not in index:
            strongconnect(node)
    return sccs


def analyze_deadlock(err: DeadlockError,
                     failed: Optional[Iterable[int]] = None) -> DeadlockAnalysis:
    """Build a :class:`DeadlockAnalysis` from a deadlock's structured
    details (raised by any engine run with :class:`~repro.sim.Process`
    waiters — no monitor required).

    ``failed`` optionally lists 1-based global images that were
    fail-stopped by fault injection; any waiter whose expected notifiers
    include one of them is *attributed* to the failure rather than to an
    algorithmic bug (and the report says so).
    """
    waiters: List[WaiterRecord] = []
    for info in err.details:
        target = info.target
        kind = info.kind
        if kind == "event":
            # A failure-aware wait (repro.faults) blocks on a wrapper
            # event carrying the real awaited cell — unwrap it so the
            # analysis keeps its team/round/mailbox context.
            inner = getattr(target, "cell", None)
            if inner is not None:
                target = inner
                kind = "cell"
        meta = getattr(target, "meta", None)
        value = getattr(target, "value", None) if kind == "cell" else None
        waiters.append(WaiterRecord(
            image=info.actor + 1 if isinstance(info.actor, int) else None,
            process=info.process,
            kind=kind,
            target_name=getattr(target, "name", "") or "<anonymous>",
            value=value,
            context=_cell_context(meta) if kind == "cell" else "",
            expects=(_expected_writers(meta, value)
                     if kind == "cell" else None),
        ))

    blocked = sorted({w.image for w in waiters if w.image is not None})
    blocked_set = set(blocked)
    expected_union: Set[int] = set()
    edges: Dict[int, Set[int]] = {i: set() for i in blocked}
    for w in waiters:
        if w.image is None or w.expects is None:
            continue
        expected_union.update(w.expects)
        edges[w.image].update(i for i in w.expects if i in blocked_set)
    missing = sorted(expected_union - blocked_set)
    cycles = _find_cycles(edges)
    failed_list = sorted(set(failed)) if failed else []
    failed_set = set(failed_list)
    # failed images cannot be "missing notifiers" in the bug sense — they
    # are dead by design
    missing = [i for i in missing if i not in failed_set]
    fault_attributed = sorted({
        w.image for w in waiters
        if w.image is not None and w.expects
        and failed_set.intersection(w.expects)
    })
    return DeadlockAnalysis(
        waiters=waiters, blocked=blocked, missing=missing, cycles=cycles,
        failed=failed_list, fault_attributed=fault_attributed,
    )


def explain_deadlock(err: DeadlockError,
                     failed: Optional[Iterable[int]] = None) -> str:
    """Pretty-print the wait-for diagnosis of a deadlock; ``failed``
    attributes residual hangs to injected fail-stops (see
    :func:`analyze_deadlock`)."""
    return analyze_deadlock(err, failed=failed).render()
