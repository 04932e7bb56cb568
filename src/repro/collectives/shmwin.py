"""Shared-memory-window collectives (the hybrid MPI+MPI family).

The paper's two-level methodology still moves every intranode byte as a
*message* through the node leader: slaves put contributions into the
leader's mailbox and the leader pushes the result back out one slave at
a time — a serialized fan-out at the leader even though everyone shares
the same physical memory.  The closest modern competitor (Zhou et al.,
arXiv 2007.06892 / 2007.11496) instead allocates a **node-shared
window** per team: intranode members load and store window slots
directly and synchronize on node-local flags, so there are no intranode
message hops at all, and only the inter-node exchange goes through the
conduit.

Mapping onto this repo's machine model
(:mod:`repro.machine.memnode` — per-socket memory controllers,
destination-socket homing, ``src_core == dst_core`` degenerates to a
memcpy):

* a **window store** of my own slot is a ``direct`` self-transfer
  (``me → me``): it occupies *my* socket's controller, so the stores of
  slaves on different sockets proceed in parallel — unlike two-level's
  mailbox puts, which all home on the leader's socket;
* a **window load** of another member's slot is a ``direct`` transfer
  ``owner → me`` issued from the *reader's* process: concurrent readers
  serialize only on their own sockets' controllers, never on the
  leader;
* the leader's **fan-in combine** is one contiguous sweep over the
  window — a single self-transfer of the aggregate slot bytes (one bus
  grant plus the streamed bandwidth term) instead of one bus grant per
  contribution;
* the **release** is one store to a single node-shared flag cell whose
  monotonic counter carries across invocations (``v >= seq``, the
  paper's one-wait discipline) — every waiter wakes off that one store
  and pays its own observe-load, where TDLB's leader pays a serialized
  notification per slave.

The inter-node phase reuses the proven machinery: one-wait
dissemination for the barrier, MPICH recursive doubling for the
reduction, a binomial tree over leaders for the broadcast.

Flags that are bumped only *conditionally* (a broadcast seed when the
source is not its node's leader, a release on nodes that have readers
this call) carry their own invocation counters, advanced only on the
calls that bump them — every member can evaluate the condition from
SPMD-uniform arguments, so the counters stay consistent across images
and the one-wait carry never skews.

None of these functions ever joins a macro-event window — they register
with ``macro_kind=None`` and always run fine-grained, which is exactly
the graceful fine-pinning the registry capability map encodes.  All
blocking goes through :func:`~repro.faults.manager.wait_or_fail`, so
failed window peers surface as ``STAT_FAILED_IMAGE`` at the next
collective like every other algorithm family.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from ..faults.manager import wait_or_fail
from ..teams.team import TeamView
from .base import (
    NOTIFY_NBYTES,
    binomial_peers,
    combine_flops,
    dissemination_rounds,
    payload_nbytes,
)
from .broadcast import _check_source
from .reduce import (
    _combine,
    _freeze,
    _recursive_doubling,
    _send_value,
    _wait_values,
)

__all__ = ["barrier_shmwin", "allreduce_shmwin", "bcast_shmwin"]


# ----------------------------------------------------------------------
# Window primitives
# ----------------------------------------------------------------------
def _win_store(ctx, view: TeamView, nbytes: int, on_visible=None) -> Iterator:
    """Store ``nbytes`` into my own window slot: a direct self-transfer,
    homed on *my* socket's controller (parallel across sockets)."""
    yield from ctx.conduit.transfer(
        view.proc, view.proc, nbytes, on_delivered=on_visible, path="direct"
    )


def _win_load(ctx, view: TeamView, owner_index: int, nbytes: int) -> Iterator:
    """Load ``nbytes`` from member ``owner_index``'s window slot, issued
    from (and charged to) the reading image's timeline."""
    owner = view.shared.proc_of(owner_index)
    yield from ctx.conduit.transfer(owner, view.proc, nbytes, path="direct")


def _node_flag(view: TeamView, leader: int, variant: str):
    """The node-shared flag cell of ``leader``'s window, namespaced by
    ``variant`` (the generic counter store TeamShared already provides)."""
    return view.shared.diss_flag(leader, 0, variant)


# ----------------------------------------------------------------------
# Barrier
# ----------------------------------------------------------------------
def barrier_shmwin(ctx, view: TeamView) -> Iterator:
    """Window barrier: intranode arrival/release on node-shared flags,
    inter-node one-wait dissemination among the leaders.

    A slave stores its arrival flag into the window (self-transfer) and
    blocks on the *single* node release cell; the leader, once everyone
    has arrived, runs the leader dissemination and then releases the
    whole node with **one** store — the fan-out TDLB serializes into
    ``len(slaves)`` notifications collapses to a store plus parallel
    observe-loads.
    """
    seq = view.next_seq("shmwin")
    if view.size == 1:
        return
    shared = view.shared
    h = shared.hierarchy
    me = view.index
    leader = h.leader_of[me]
    arrive = _node_flag(view, leader, "shmwin-arr")
    release = _node_flag(view, leader, "shmwin-rel")

    if me != leader:
        yield from _win_store(ctx, view, NOTIFY_NBYTES,
                              on_visible=lambda: arrive.add(1))
        yield from wait_or_fail(ctx, view, release, lambda v, s=seq: v >= s)
        # the coherence-miss pull of the release line, paid in parallel
        # by every waiter on its own socket
        yield from _win_load(ctx, view, leader, NOTIFY_NBYTES)
        return

    slaves = h.slaves_of(me)
    if slaves:
        yield from wait_or_fail(
            ctx, view, arrive, lambda v, s=seq * len(slaves): v >= s
        )
    yield from dissemination_rounds(
        ctx, view, h.leaders, variant="shmwin-leaders", seq=seq, path="auto"
    )
    if slaves:
        yield from _win_store(ctx, view, NOTIFY_NBYTES,
                              on_visible=lambda: release.add(1))


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def allreduce_shmwin(
    ctx, view: TeamView, value: Any, op: str = "sum",
    result_image: Optional[int] = None,
) -> Iterator:
    """Window allreduce (rooted reduce via ``result_image``).

    Intranode fan-in: every slave stores its contribution into its own
    window slot (parallel across sockets) and bumps its own arrival
    flag; the leader waits for each slave's flag, sweeps the whole
    window once — a single aggregate self-transfer — and combines in
    slot-index order (deterministic, so double runs are bit-identical).
    Leaders then run recursive doubling across nodes, store the result
    into the window **once**, and release the node; every reader loads
    the result itself, serialized only by its own socket's controller.

    The arrival flags are per slave because a slave that reads no
    result (a rooted reduce) runs on to the next call and stores again,
    which a shared arrival count would take for a slower slave's store.
    """
    _combine(op, value, value)  # validate op early, uniformly on all images
    tag = view.next_op_tag("red-shmwin")
    seq = view.next_seq("shmwin-red")
    n = view.size
    if n == 1:
        return _freeze(value)
    shared = view.shared
    h = shared.hierarchy
    me = view.index
    leader = h.leader_of[me]
    release = _node_flag(view, leader, "shmwin-red-rel")
    nbytes = payload_nbytes(value)

    # The readers of this node's result slot — SPMD-uniform within the
    # node, so the conditional release counter stays consistent.
    slaves = h.slaves_of(leader)
    if result_image is None:
        readers: List[int] = slaves
    else:
        readers = [result_image] if result_image in slaves else []
    rel_seq = view.next_seq("shmwin-red-rel") if readers else None

    if me != leader:
        contribution = _freeze(value)
        arrive = _node_flag(view, me, "shmwin-red-arr")
        yield from _win_store(
            ctx, view, nbytes,
            on_visible=lambda: (shared.win_put((tag, me), contribution, 1),
                                arrive.add(1)),
        )
        if me not in readers:
            return None
        yield from wait_or_fail(ctx, view, release,
                                lambda v, s=rel_seq: v >= s)
        result = shared.win_take((tag, "result", leader))
        yield from _win_load(ctx, view, leader, payload_nbytes(result))
        if result_image is not None and me != result_image:
            return None
        return result

    acc = _freeze(value)
    if slaves:
        for slave in slaves:
            yield from wait_or_fail(
                ctx, view, _node_flag(view, slave, "shmwin-red-arr"),
                lambda v, s=seq: v >= s)
        contributions = [shared.win_take((tag, slave)) for slave in slaves]
        # One contiguous sweep over the node window: a single bus grant
        # plus the streamed bandwidth term for all slots together.
        yield from _win_store(ctx, view, nbytes * len(slaves))
        for contribution in contributions:
            acc = _combine(op, acc, contribution)
        yield ctx.compute_cost(combine_flops(value) * len(slaves))

    acc = yield from _recursive_doubling(
        ctx, view, h.leaders, acc, op, tag + ("lead",), path="auto"
    )

    if readers:
        yield from _win_store(
            ctx, view, payload_nbytes(acc),
            on_visible=lambda r=acc: (
                shared.win_put((tag, "result", leader), r, len(readers)),
                release.add(1)),
        )
    if result_image is not None and me != result_image:
        return None
    return acc


# ----------------------------------------------------------------------
# Broadcast
# ----------------------------------------------------------------------
def bcast_shmwin(
    ctx, view: TeamView, value: Any, source_image: int
) -> Iterator:
    """Window broadcast: the payload crosses each node boundary once
    (binomial tree over leaders, as in two-level), then lands in the
    node window with a **single** store per node — every intranode
    member loads its own copy in parallel instead of waiting in the
    leader's serialized fan-out queue.
    """
    _check_source(view, source_image)
    tag = view.next_op_tag("bc-shmwin")
    n = view.size
    me = view.index
    if n == 1:
        return _freeze(value)
    shared = view.shared
    h = shared.hierarchy
    my_leader = h.leader_of[me]
    source_leader = h.leader_of[source_image]
    leaders = h.leaders
    lead_tag = tag + ("lead",)
    release = _node_flag(view, my_leader, "shmwin-bc-rel")

    # Conditional one-wait carries: the seed flag is bumped only when the
    # source is not its node's leader, a node's release only when it has
    # readers this call — both conditions are SPMD-uniform, so every
    # image advances the same counters on the same calls.  The seed flag
    # belongs to the source's leader, so its count is kept per leader.
    seed_seq = (view.next_seq(f"shmwin-bc-seed-{source_leader}")
                if source_image != source_leader else None)
    my_readers = [s for s in h.slaves_of(my_leader) if s != source_image]
    rel_seq = (view.next_seq("shmwin-bc-rel")
               if my_readers else None)

    # Phase 0: a non-leader source publishes the payload in the window
    # (one store) and bumps the seed flag its leader waits on.
    if me == source_image and my_leader != me:
        seed = _node_flag(view, my_leader, "shmwin-bc-seed")
        payload = _freeze(value)
        yield from _win_store(
            ctx, view, payload_nbytes(value),
            on_visible=lambda: (shared.win_put((tag, "seed"), payload, 1),
                                seed.add(1)),
        )

    if me == my_leader:
        # Phase 1: binomial tree among leaders, rooted at the source's.
        if me == source_leader:
            if me == source_image:
                payload = _freeze(value)
            else:
                seed = _node_flag(view, me, "shmwin-bc-seed")
                yield from wait_or_fail(ctx, view, seed,
                                        lambda v, s=seed_seq: v >= s)
                payload = shared.win_take((tag, "seed"))
                yield from _win_load(ctx, view, source_image,
                                     payload_nbytes(payload))
        else:
            payload = None
        num_leaders = len(leaders)
        root_rank = h.leader_rank[source_leader]
        vrank = (h.leader_rank[me] - root_rank) % num_leaders
        parent, children = binomial_peers(vrank, num_leaders)
        if parent is not None:
            got = yield from _wait_values(ctx, view, lead_tag, 1)
            payload = got[0]
        for child in children:
            target = leaders[(child + root_rank) % num_leaders]
            yield from _send_value(ctx, view, target, lead_tag, payload,
                                   path="auto")
        # Phase 2: one window store releases the whole node.
        if my_readers:
            yield from _win_store(
                ctx, view, payload_nbytes(payload),
                on_visible=lambda p=payload: (
                    shared.win_put((tag, "out", my_leader), p, len(my_readers)),
                    release.add(1)),
            )
        return payload

    # Non-leader images: the source already holds the payload; everyone
    # else waits on the node release flag and loads its own copy.
    if me == source_image:
        return _freeze(value)
    yield from wait_or_fail(ctx, view, release, lambda v, s=rel_seq: v >= s)
    payload = shared.win_take((tag, "out", my_leader))
    yield from _win_load(ctx, view, my_leader, payload_nbytes(payload))
    return payload
