"""Shared machinery for team collectives.

Every collective here is a *generator function* executed inside each
member image's simulated process.  They receive the image's
:class:`~repro.teams.team.TeamView` plus a ``ctx`` object exposing the
conduit, machine, and runtime config (duck-typed; the real one is
:class:`repro.runtime.program.CafContext`).

The module also holds the one-sided **dissemination core** used both by
the flat barrier and by the leader phase of TDLB — the paper's
"``sync_flags`` carry" with a single wait per round (§V-A): each image
keeps one monotonically increasing counter per round; the partner's
notification is an increment, and arrival at invocation ``seq`` is the
predicate ``counter >= seq``.  Nothing is ever reset, so there is no
second wait and no parity bookkeeping.

Member plans
------------
Everything a member's steps need except the per-call tag and payload is
fixed once the team is formed: partners, their routes, the flag cells
they bump.  Each :class:`~repro.teams.team.TeamView` therefore carries
a :class:`MemberPlan`, filled per algorithm the first time that
algorithm runs fine-grained on the team (a replayed macro window builds
nothing), and the fine-grained generators walk it.  Delivery callbacks
in a plan are ``functools.partial`` objects, never closures: a closure
inside a collective generator costs a cell per captured local every
time the generator starts, replayed or not.
"""

from __future__ import annotations

import math
from functools import partial
from operator import le
from typing import Iterator, List, Sequence

from ..faults.manager import wait_or_fail
from ..sim import Timeout, WaitFor
from ..teams.team import TeamView

__all__ = [
    "NOTIFY_NBYTES",
    "MemberPlan",
    "NodePlan",
    "member_plan",
    "node_plan",
    "payload_nbytes",
    "combine_flops",
    "dissemination_rounds",
    "notify",
    "binomial_peers",
]

#: size of a pure synchronization notification (one flag word)
NOTIFY_NBYTES = 8


def payload_nbytes(value) -> int:
    """Bytes on the wire for a collective payload.

    Arrays report their true size; containers (the gather family moves
    lists/dicts of contributions) are summed recursively; anything else
    is one word.
    """
    cls = value.__class__
    if cls is int or cls is float:
        return 8
    if cls is tuple:  # e.g. maxloc (value, location) pairs
        total = 0
        for v in value:
            c = v.__class__
            total += 8 if c is int or c is float else payload_nbytes(v)
        return max(8, total)
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (list, tuple)):
        return max(8, sum(payload_nbytes(v) for v in value))
    if isinstance(value, dict):
        return max(8, sum(payload_nbytes(v) for v in value.values()))
    return 8  # python scalar → one word


def combine_flops(value) -> float:
    """Element count of one combine step (charged as flops)."""
    size = getattr(value, "size", None)
    if size is not None:
        return float(size)
    return 1.0


def notify(ctx, view: TeamView, target_index: int, cell, path: str = "auto") -> Iterator:
    """Send one flag-word notification to team member ``target_index``,
    incrementing ``cell`` on delivery."""
    return ctx.conduit.transfer(
        view.proc, view.shared.proc_of(target_index), NOTIFY_NBYTES,
        partial(cell.add, 1), path,
    )


# ----------------------------------------------------------------------
# Member plans
# ----------------------------------------------------------------------
class MemberPlan:
    """One member's resolved collective steps on one team.

    Each part is built by the first fine-grained run of its algorithm:
    ``node`` (the intranode edges, :class:`NodePlan`), ``tdlb``
    (:mod:`~repro.collectives.barrier`), ``bcast`` (source leader →
    binomial edges, :mod:`~repro.collectives.broadcast`), and the two
    participant-list walkers: ``diss`` for :func:`dissemination_rounds`
    and ``rd`` for recursive doubling (:mod:`~repro.collectives.reduce`).
    The walkers are keyed by the identity of the participant sequence —
    callers pass the team's own persistent lists
    (:attr:`HierarchyInfo.leaders <repro.teams.hierarchy.HierarchyInfo.leaders>`,
    :attr:`TeamShared.indices <repro.teams.team.TeamShared.indices>`) — and
    each entry keeps its sequence alive, so an identity is never reused.
    """

    __slots__ = ("node", "tdlb", "bcast", "diss", "rd")

    def __init__(self):
        self.node = None
        self.tdlb = None
        self.bcast = {}
        self.diss = {}
        self.rd = {}


def member_plan(view: TeamView) -> MemberPlan:
    """``view``'s plan, created empty on first use."""
    plan = view.plan
    if plan is None:
        plan = view.plan = MemberPlan()
    return plan


class NodePlan:
    """A member's intranode edges: its node leader and the direct route
    to it (None at the leader), and at a leader its slaves in index
    order with the direct routes to each."""

    __slots__ = ("leader", "to_leader", "slaves", "to_slaves")

    def __init__(self, conduit, view: TeamView):
        shared = view.shared
        h = shared.hierarchy
        me = view.index
        self.leader = leader = h.leader_of[me]
        if leader != me:
            self.to_leader = conduit.route(
                view.proc, shared.proc_of(leader), "direct")
            self.slaves = []
            self.to_slaves = []
        else:
            self.to_leader = None
            self.slaves = h.slaves_of(me)
            self.to_slaves = [
                conduit.route(view.proc, shared.proc_of(s), "direct")
                for s in self.slaves
            ]


def node_plan(ctx, view: TeamView) -> NodePlan:
    plan = member_plan(view)
    node = plan.node
    if node is None:
        node = plan.node = NodePlan(ctx.conduit, view)
    return node


def _diss_rounds(ctx, view: TeamView, participants: Sequence[int],
                 variant: str) -> list:
    """Per round: the route to this member's partner, the increment of
    the partner's flag, and this member's own flag."""
    conduit = ctx.conduit
    shared = view.shared
    n = len(participants)
    rank = participants.index(view.index)
    rounds = []
    for r in range(math.ceil(math.log2(n))):
        send_to = participants[(rank + (1 << r)) % n]
        rounds.append((
            conduit.route(view.proc, shared.proc_of(send_to)),
            partial(shared.diss_flag(send_to, r, variant).add, 1),
            shared.diss_flag(view.index, r, variant),
        ))
    return rounds


def dissemination_rounds(
    ctx,
    view: TeamView,
    participants: Sequence[int],
    variant: str,
    seq: int,
    extra_round_cost: float = 0.0,
) -> Iterator:
    """One-wait dissemination barrier among ``participants`` (team indices).

    ``participants`` must be identical (same order) at every participant;
    ``variant`` namespaces the sync_flags so different algorithms on the
    same team never alias counters; ``seq`` is this call's invocation
    number for the carry predicate.  ``extra_round_cost`` models the
    additional local bookkeeping of the two-array variant [7]
    (``dissemination-mcs``, the CAF 2.0 configs' barrier).
    """
    if len(participants) <= 1:
        return
    plans = member_plan(view).diss
    key = (id(participants), variant)
    entry = plans.get(key)
    if entry is None:
        entry = plans[key] = (
            participants, _diss_rounds(ctx, view, participants, variant)
        )
    send = ctx.conduit.send
    arrived = partial(le, seq)  # flag >= seq
    faults = getattr(ctx, "faults", None)
    for route, bump, my_flag in entry[1]:
        yield from send(route, NOTIFY_NBYTES, bump)
        if faults is None:
            yield WaitFor(my_flag, arrived)
        else:
            yield from wait_or_fail(ctx, view, my_flag, arrived)
        if extra_round_cost > 0.0:
            yield Timeout(extra_round_cost)


def binomial_peers(rank: int, n: int) -> tuple[int | None, List[int]]:
    """Binomial-tree shape over virtual ranks 0..n-1 rooted at 0.

    Returns ``(parent, children)``: ``parent`` is ``rank`` with its lowest
    set bit cleared (None for the root); ``children`` are ``rank + 2^k``
    for every ``2^k`` by which ``rank`` is divisible twice over, listed
    largest stride first — the order a root-down broadcast sends in, so
    the deepest subtree starts earliest.
    """
    if not 0 <= rank < n:
        raise ValueError(f"rank {rank} out of range [0, {n})")
    parent = None if rank == 0 else rank - (rank & -rank)
    children: List[int] = []
    stride = 1
    while stride < n:
        if rank % (stride << 1) != 0:
            break
        child = rank + stride
        if child < n:
            children.append(child)
        stride <<= 1
    children.reverse()
    return parent, children
