"""Barrier algorithms: dissemination variants, linear, and TDLB.

This module implements the paper's §IV:

* :func:`barrier_dissemination` — the classic flat dissemination barrier
  [Hensgen/Finkel/Manber 1988] reformulated for one-sided PGAS with the
  paper's single-wait ``sync_flags`` carry.  Hierarchy-unaware: with
  ``path="auto"`` on an unaware runtime, same-node notifications take the
  conduit loopback, which is what makes it collapse at 8 images/node.
* :func:`barrier_dissemination_mcs` / :func:`barrier_dissemination_twowait`
  — the historical two-array [Mellor-Crummey & Scott 1991, Alg. 9] and
  two-wait [Hensgen et al.] formulations, modeled with their extra
  per-round bookkeeping; CAF 2.0 uses the former.
* :func:`barrier_linear` — the centralized counter barrier: 2(n−1)
  notifications through one leader.  Great inside a node, terrible
  across nodes (§IV-A's analysis).
* :func:`barrier_tdlb` — **Algorithm 1**, the paper's Team Dissemination
  Linear Barrier: (1) slaves sync linearly with their node leader,
  (2) leaders run dissemination among themselves, (3) leaders release
  their intranode set.

Each function is a generator run by every member of the team, and every
function must be entered by *all* members of the team (SPMD collective
semantics) or the simulation deadlocks — deliberately, as the real
program would.
"""

from __future__ import annotations

from functools import partial
from operator import le
from typing import Iterator

from ..faults.manager import wait_or_fail
from ..sim import WaitFor
from ..teams.team import TeamView
from .base import (
    NOTIFY_NBYTES,
    binomial_peers,
    dissemination_rounds,
    member_plan,
    node_plan,
    notify,
)

__all__ = [
    "barrier_dissemination",
    "barrier_dissemination_mcs",
    "barrier_dissemination_twowait",
    "barrier_linear",
    "barrier_tournament",
    "barrier_tdlb",
    "barrier_tdlb_numa",
]

#: extra per-round local bookkeeping of the two-sync-array variant [7]:
#: sense reversal + parity flip on a shared line (two extra cache events)
MCS_EXTRA_ROUND_COST = 0.12e-6
#: extra per-round cost of the two-wait variant [3]: the second wait
#: (flag reset visibility) adds roughly one coherence latency
TWOWAIT_EXTRA_ROUND_COST = 0.25e-6


def barrier_dissemination(ctx, view: TeamView, path: str = "auto") -> Iterator:
    """Flat one-wait dissemination over the whole team: n·⌈log2 n⌉
    notifications, ⌈log2 n⌉ rounds."""
    seq = view.next_seq("diss")
    yield from dissemination_rounds(
        ctx, view, view.shared.indices, variant="diss", seq=seq, path=path
    )


def barrier_dissemination_mcs(ctx, view: TeamView, path: str = "auto") -> Iterator:
    """Flat dissemination with the two-sync-array bookkeeping of [7]."""
    seq = view.next_seq("diss-mcs")
    yield from dissemination_rounds(
        ctx, view, view.shared.indices, variant="diss-mcs", seq=seq,
        path=path, extra_round_cost=MCS_EXTRA_ROUND_COST,
    )


def barrier_dissemination_twowait(ctx, view: TeamView, path: str = "auto") -> Iterator:
    """Flat dissemination with the two-wait bookkeeping of [3]."""
    seq = view.next_seq("diss-2w")
    yield from dissemination_rounds(
        ctx, view, view.shared.indices, variant="diss-2w", seq=seq,
        path=path, extra_round_cost=TWOWAIT_EXTRA_ROUND_COST,
    )


def barrier_linear(ctx, view: TeamView, path: str = "auto") -> Iterator:
    """Centralized counter barrier over the whole team, leader = index 1.

    2(n−1) notifications in two serial phases — the §IV-A comparison
    point: cheaper than dissemination when everything serializes anyway
    (one shared-memory node), slower across nodes."""
    seq = view.next_seq("linear")
    shared = view.shared
    n = view.size
    if n == 1:
        return
    macro = getattr(ctx, "macro", None)
    if macro is not None and path == "auto":
        # Offer the window to the macro-event coordinator.  If it parks
        # this image and resumes it with True, the barrier was replayed
        # (exit times, flag state, traffic all mirrored) and this image
        # just returns.  Otherwise fall through to the fine-grained
        # protocol with the seq drawn above.
        park = macro.offer(view, "linear", seq)
        if park is not None and (yield park):
            return
    leader = 1
    me = view.index
    if me != leader:
        yield from notify(ctx, view, leader, shared.cocounter(leader), path=path)
        yield from wait_or_fail(
            ctx, view, shared.release_flag(me), lambda v, s=seq: v >= s
        )
    else:
        yield from wait_or_fail(
            ctx, view, shared.cocounter(leader),
            lambda v, s=seq * (n - 1): v >= s,
        )
        for slave in range(2, n + 1):
            yield from notify(
                ctx, view, slave, shared.release_flag(slave), path=path
            )


def barrier_tournament(ctx, view: TeamView, path: str = "auto") -> Iterator:
    """Tournament barrier [Mellor-Crummey & Scott 1991]: statically paired
    rounds fan arrivals into a champion (rank 0) along a binomial tree —
    2(n−1) notifications like the linear barrier, but ⌈log₂ n⌉ *rounds*
    like dissemination, trading total messages for critical-path depth.
    Included for the §VI comparison space (and the E6 counts bench)."""
    seq = view.next_seq("tournament")
    shared = view.shared
    n = view.size
    if n == 1:
        return
    rank = view.index - 1
    parent, children = binomial_peers(rank, n)
    # fan-in: wait for each child's arrival, then report to the parent
    for child in sorted(children):
        arrive = shared.diss_flag(view.index, child, "tourn-arrive")
        yield from wait_or_fail(ctx, view, arrive, lambda v, s=seq: v >= s)
    if parent is not None:
        arrive = shared.diss_flag(parent + 1, rank, "tourn-arrive")
        yield from notify(ctx, view, parent + 1, arrive, path=path)
        release = shared.diss_flag(view.index, 0, "tourn-release")
        yield from wait_or_fail(ctx, view, release, lambda v, s=seq: v >= s)
    # fan-out: champion (and each released winner) wakes its children
    for child in children:
        release = shared.diss_flag(child + 1, 0, "tourn-release")
        yield from notify(ctx, view, child + 1, release, path=path)


def barrier_tdlb(ctx, view: TeamView) -> Iterator:
    """Algorithm 1 — Team Dissemination Linear Barrier.

    Step 1: each non-leader notifies its node leader's ``cocounter`` via a
    direct shared-memory store and blocks on its release flag.  The
    leader waits for all its intranode slaves to arrive.
    Step 2: leaders (one per node with members in the team) run the
    one-wait dissemination barrier among themselves; with block placement
    these are all inter-node messages.
    Step 3: each leader releases its intranode set with direct stores.

    On a flat team (1 image/node) there are no slaves and TDLB reduces to
    the leader dissemination — the paper's claim (1) in §V-A.
    """
    seq = view.next_seq("tdlb")
    macro = getattr(ctx, "macro", None)
    if macro is not None:
        # See barrier_linear: replayed windows are complete on resume.
        park = macro.offer(view, "tdlb", seq)
        if park is not None and (yield park):
            return
    plan = _tdlb_plan(ctx, view)
    send = ctx.conduit.send
    # Fault-free, each wait is the WaitFor wait_or_fail would yield.
    faults = getattr(ctx, "faults", None)
    if plan.released is not None:
        # Step 1 (slave side): arrive at the leader, then wait for release.
        yield from send(plan.to_leader, NOTIFY_NBYTES, plan.arrive)
        released = partial(le, seq)  # release flag >= seq
        if faults is None:
            yield WaitFor(plan.released, released)
        else:
            yield from wait_or_fail(ctx, view, plan.released, released)
        return

    if plan.arrived is not None:
        # Step 1 (leader side): wait for the whole intranode set.
        arrived = partial(le, seq * len(plan.releases))  # cocounter >= that
        if faults is None:
            yield WaitFor(plan.arrived, arrived)
        else:
            yield from wait_or_fail(ctx, view, plan.arrived, arrived)
    # Step 2: inter-node dissemination among leaders only.
    yield from dissemination_rounds(
        ctx, view, view.shared.hierarchy.leaders, variant="tdlb-leaders",
        seq=seq, path="auto",
    )
    # Step 3: release the intranode set.
    for route, release in plan.releases:
        yield from send(route, NOTIFY_NBYTES, release)


class _TdlbPlan:
    """A member's TDLB steps.  A slave holds the route to its leader,
    the increment of the leader's cocounter and its own release flag;
    a leader holds its cocounter (None without slaves) and, per slave,
    the route and the increment of that slave's release flag."""

    __slots__ = ("to_leader", "arrive", "released", "arrived", "releases")

    def __init__(self, ctx, view: TeamView):
        node = node_plan(ctx, view)
        shared = view.shared
        self.to_leader = node.to_leader
        if node.to_leader is not None:
            self.arrive = partial(shared.cocounter(node.leader).add, 1)
            self.released = shared.release_flag(view.index)
            self.arrived = None
            self.releases = []
        else:
            self.arrive = self.released = None
            self.arrived = shared.cocounter(view.index) if node.slaves else None
            self.releases = [
                (route, partial(shared.release_flag(slave).add, 1))
                for slave, route in zip(node.slaves, node.to_slaves)
            ]


def _tdlb_plan(ctx, view: TeamView) -> _TdlbPlan:
    plan = member_plan(view)
    tdlb = plan.tdlb
    if tdlb is None:
        tdlb = plan.tdlb = _TdlbPlan(ctx, view)
    return tdlb


def barrier_tdlb_numa(ctx, view: TeamView) -> Iterator:
    """Three-level TDLB — the paper's §VII future work, implemented.

    Adds a socket tier below the node tier: (1) images sync linearly
    with their *socket* leader (intra-socket coherence latency), (2)
    socket leaders sync linearly with the node leader (cross-socket
    latency), (3) node leaders run dissemination over the interconnect,
    then releases cascade back down.  On a node with a single populated
    socket this degenerates to plain TDLB; on a flat team, to the leader
    dissemination — the same graceful-degeneration property TDLB has.
    """
    seq = view.next_seq("tdlb3")
    shared = view.shared
    h = shared.hierarchy
    me = view.index
    node_leader = h.leader_of[me]
    my_node = h.node_of[me]
    socket_sets = h.socket_sets(my_node)
    my_socket = h.socket_of[me]
    # Socket leader: the node leader if it sits on this socket, else the
    # lowest index — so the node leader never waits on itself.
    my_socket_set = socket_sets[my_socket]
    socket_leader = (
        node_leader if node_leader in my_socket_set else my_socket_set[0]
    )
    # Release flags are namespaced per tier via distinct variants of the
    # dissemination-flag table (reusing it as a generic counter store).
    sock_arrive = shared.diss_flag(socket_leader, 0, "tdlb3-sarr")
    node_arrive = shared.diss_flag(node_leader, 0, "tdlb3-narr")

    if me != socket_leader:
        # Tier 1 up: arrive at the socket leader.
        yield from notify(ctx, view, socket_leader, sock_arrive, path="direct")
        my_release = shared.diss_flag(me, 0, "tdlb3-rel")
        yield from wait_or_fail(ctx, view, my_release, lambda v, s=seq: v >= s)
        return

    n_socket_slaves = len(my_socket_set) - 1
    if n_socket_slaves:
        yield from wait_or_fail(
            ctx, view, sock_arrive, lambda v, s=seq * n_socket_slaves: v >= s
        )

    socket_leaders = [
        (node_leader if node_leader in members else members[0])
        for _, members in sorted(socket_sets.items())
    ]
    if me != node_leader:
        # Tier 2 up: socket leader arrives at the node leader.
        yield from notify(ctx, view, node_leader, node_arrive, path="direct")
        my_release = shared.diss_flag(me, 0, "tdlb3-rel")
        yield from wait_or_fail(ctx, view, my_release, lambda v, s=seq: v >= s)
    else:
        n_sock_leaders = len([sl for sl in socket_leaders if sl != me])
        if n_sock_leaders:
            yield from wait_or_fail(
                ctx, view, node_arrive,
                lambda v, s=seq * n_sock_leaders: v >= s,
            )
        # Tier 3: node leaders across the interconnect.
        yield from dissemination_rounds(
            ctx, view, h.leaders, variant="tdlb3-leaders", seq=seq, path="auto"
        )
        # Tier 2 down: release the other socket leaders.
        for sl in socket_leaders:
            if sl != me:
                yield from notify(
                    ctx, view, sl, shared.diss_flag(sl, 0, "tdlb3-rel"),
                    path="direct",
                )
    # Tier 1 down: every socket leader releases its socket.
    for slave in my_socket_set:
        if slave != me:
            yield from notify(
                ctx, view, slave, shared.diss_flag(slave, 0, "tdlb3-rel"),
                path="direct",
            )
