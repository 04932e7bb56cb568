"""All-to-all reduction (``co_sum``/``co_max``/``co_min``) algorithms.

Four strategies, from the paper's "default approach" to its two-level
contribution:

* :func:`allreduce_linear_flat` — the naive centralized reduction the
  original UHCAF runtime shipped: every image puts its contribution to
  image 1, which combines and pushes the result back out one image at a
  time.  Every transfer goes through the conduit (loopback for same-node
  peers on an unaware runtime), and the fan-out serializes at the root —
  this is the baseline the paper reports up to 74× over.
* :func:`allreduce_binomial_flat` — binomial-tree reduce to index 1 then
  binomial broadcast; the classic flat improvement, still unaware.
* :func:`allreduce_recursive_doubling` — the MPI-style exchange
  algorithm (MPICH/MVAPICH allreduce for short messages).
* :func:`allreduce_two_level` — the paper's §IV methodology applied to
  reduction: intranode combine at each leader via direct shared-memory
  transfers, recursive doubling among node leaders, intranode fan-out.

Every function returns the reduced value via the generator's return
value (``result = yield from co_sum(...)``).  Data movement is real:
results are bit-comparable against a NumPy reference in the tests
(exactly for integer dtypes; to rounding for floats, since combine order
differs between algorithms just as it does between real MPI algorithms).
"""

from __future__ import annotations

from functools import partial
from operator import le
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ..faults.manager import wait_or_fail
from ..sim import Timeout, WaitFor
from ..teams.team import TeamView
from .base import (
    binomial_peers,
    combine_flops,
    member_plan,
    node_plan,
    payload_nbytes,
)

__all__ = [
    "REDUCE_OPS",
    "allreduce_linear_flat",
    "allreduce_binomial_flat",
    "allreduce_recursive_doubling",
    "allreduce_two_level",
    "allreduce_three_level",
]

REDUCE_OPS = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": np.multiply,
}

#: the operators the recursive-doubling call sites offer to a macro
#: window: the built-ins, and HPL's ``maxloc``, whose tuple payloads the
#: replay combines pair by pair
REPLAY_OPS = frozenset([*REDUCE_OPS, "maxloc"])


#: The original UHCAF reduction was Active-Message based: each arriving
#: contribution runs a handler on the root image's conduit engine, so the
#: root pays a serialized per-message software cost on top of the wire
#: traffic.  This is what pushes the centralized baseline into the
#: paper's reported ~74× territory at 44 nodes × 8 images.
AM_HANDLER_COST = 3.6e-6


def _combine(op, a: Any, b: Any) -> Any:
    if callable(op):
        # F2018 co_reduce with a user operation: any commutative,
        # associative callable.  A crashing or None-returning operation
        # would otherwise surface images-deep inside an algorithm as a
        # nonsense partial on one image only; fail loudly and uniformly.
        try:
            result = op(a, b)
        except Exception as exc:
            name = getattr(op, "__name__", repr(op))
            raise RuntimeError(
                f"co_reduce user operation {name!r} raised "
                f"{type(exc).__name__}: {exc} (combining {a!r} and {b!r})"
            ) from exc
        if result is None:
            name = getattr(op, "__name__", repr(op))
            raise RuntimeError(
                f"co_reduce user operation {name!r} returned None "
                f"(forgot the return?) combining {a!r} and {b!r}"
            )
        return result
    if op == "maxloc":
        # (value, location) pairs: larger value wins, ties to lower location
        # — the semantics HPL's pivot search needs.
        av, ai = a
        bv, bi = b
        return a if (av, -ai) >= (bv, -bi) else b
    try:
        ufunc = REDUCE_OPS[op]
    except KeyError:
        raise ValueError(
            f"unknown reduce op {op!r}; have {sorted(REDUCE_OPS) + ['maxloc']}"
        ) from None
    return ufunc(a, b)


def _freeze(value: Any) -> Any:
    """Snapshot a contribution so later local mutation can't corrupt the
    collective — puts copy out of the source buffer at issue time."""
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


def _post(conduit, route, shared, target_index: int, tag, value: Any) -> Iterator:
    """Costed transfer of a payload over ``route`` into member
    ``target_index``'s mailbox ``tag``."""
    return conduit.send(
        route, payload_nbytes(value),
        partial(shared.deposit, target_index, tag, _freeze(value)),
    )


def _send_value(
    ctx, view: TeamView, target_index: int, tag, value: Any, path: str = "auto"
) -> Iterator:
    """Costed transfer of a payload into a member's mailbox."""
    shared = view.shared
    conduit = ctx.conduit
    route = conduit.route(view.proc, shared.proc_of(target_index), path)
    return _post(conduit, route, shared, target_index, tag, value)


def _wait_values(ctx, view: TeamView, tag, count: int) -> list:
    """Block until ``count`` deposits sit in my mailbox ``tag``; drain them.

    This is the single blocking point of every data-carrying collective
    (reduce, broadcast, gather, alltoall, and team formation all wait
    here), so routing it through the failure-aware
    :func:`~repro.faults.manager.wait_or_fail` makes the whole family
    detect failed images instead of hanging on a mailbox a dead image was
    supposed to fill.  With no fault manager it yields the very
    ``WaitFor`` that ``wait_or_fail`` would, one generator frame sooner;
    ``partial(le, count)`` is the predicate ``v >= count``.
    """
    shared = view.shared
    cell = shared.mail_cell(view.index, tag)
    if getattr(ctx, "faults", None) is None:
        yield WaitFor(cell, partial(le, count))
    else:
        yield from wait_or_fail(ctx, view, cell, partial(le, count))
    return shared.collect(view.index, tag)


# ----------------------------------------------------------------------
# Flat centralized (the old default)
# ----------------------------------------------------------------------
def allreduce_linear_flat(
    ctx, view: TeamView, value: Any, op: str = "sum",
    result_image: Optional[int] = None,
) -> Iterator:
    """Gather-to-root, combine, serial fan-out.  2(n−1) conduit messages,
    all serialized through image 1's node."""
    _combine(op, value, value)  # validate op early, uniformly on all images
    tag = view.next_op_tag("red-lin")
    n = view.size
    if n == 1:
        return _freeze(value)
    root = 1
    me = view.index
    out_tag = tag + ("out",)
    if me != root:
        yield from _send_value(ctx, view, root, tag, value)
        if result_image is not None and me != result_image:
            return None
        got = yield from _wait_values(ctx, view, out_tag, 1)
        return got[0]
    contributions = yield from _wait_values(ctx, view, tag, n - 1)
    # Serialized AM-handler execution for every queued contribution.
    yield Timeout(AM_HANDLER_COST * (n - 1))
    acc = _freeze(value)
    for contrib in contributions:
        acc = _combine(op, acc, contrib)
    yield ctx.compute_cost(combine_flops(value) * (n - 1))
    targets: Sequence[int]
    if result_image is None:
        targets = [i for i in range(1, n + 1) if i != root]
    else:
        targets = [] if result_image == root else [result_image]
    for target in targets:
        yield from _send_value(ctx, view, target, out_tag, acc)
    if result_image is not None and me != result_image:
        return None
    return acc


# ----------------------------------------------------------------------
# Flat binomial reduce + binomial broadcast
# ----------------------------------------------------------------------
def allreduce_binomial_flat(
    ctx, view: TeamView, value: Any, op: str = "sum",
    result_image: Optional[int] = None,
) -> Iterator:
    """Binomial-tree reduce to index 1, then binomial broadcast back."""
    _combine(op, value, value)
    tag = view.next_op_tag("red-bin")
    n = view.size
    if n == 1:
        return _freeze(value)
    rank = view.index - 1
    parent, children = binomial_peers(rank, n)
    acc = _freeze(value)
    # Reduce phase: receive each child's subtree partial (smallest stride
    # arrives first), then forward to parent.
    for child in sorted(children):
        got = yield from _wait_values(ctx, view, tag + (child,), 1)
        acc = _combine(op, acc, got[0])
        yield ctx.compute_cost(combine_flops(value))
    if parent is not None:
        yield from _send_value(ctx, view, parent + 1, tag + (rank,), acc)
    # Broadcast phase: root (rank 0 = index 1) pushes down the same tree.
    out_tag = tag + ("out",)
    if parent is not None:
        got = yield from _wait_values(ctx, view, out_tag, 1)
        acc = got[0]
    for child in children:
        yield from _send_value(ctx, view, child + 1, out_tag, acc)
    if result_image is not None and view.index != result_image:
        return None
    return acc


# ----------------------------------------------------------------------
# Recursive doubling core (shared by the MPI flavor and the leader phase)
# ----------------------------------------------------------------------
class _RdPlan:
    """A member's MPICH recursive-doubling steps among one participant
    list.  Each send is ``(route, target index, tag suffix)``; each wait
    a tag suffix.  An odd extra has only ``fold_to`` and
    ``unfold_from``; an even extra has ``fold_from``, the exchange
    rounds and ``unfold_to``; the power-of-two core has the rounds."""

    __slots__ = ("participants", "fold_to", "fold_from", "rounds",
                 "unfold_to", "unfold_from")

    def __init__(self, ctx, view: TeamView, participants: Sequence[int]):
        conduit = ctx.conduit
        shared = view.shared

        def edge(target: int, suffix: tuple) -> tuple:
            route = conduit.route(view.proc, shared.proc_of(target))
            return route, target, suffix

        self.participants = participants
        n = len(participants)
        rank = participants.index(view.index)
        pow2 = 1 << (n.bit_length() - 1)
        if pow2 > n:
            pow2 >>= 1
        rem = n - pow2
        self.fold_to = self.fold_from = None
        self.unfold_to = self.unfold_from = None
        self.rounds = []
        newrank = -1
        if rank < 2 * rem:
            if rank % 2 == 1:
                # Odd extras fold into their even neighbour and sit out.
                self.fold_to = edge(participants[rank - 1], ("fold", rank))
                self.unfold_from = ("unfold", rank)
            else:
                self.fold_from = ("fold", rank + 1)
                self.unfold_to = edge(participants[rank + 1],
                                      ("unfold", rank + 1))
                newrank = rank // 2
        else:
            newrank = rank - rem
        if newrank >= 0:
            mask = 1
            while mask < pow2:
                partner_new = newrank ^ mask
                partner_rank = (
                    partner_new * 2 if partner_new < rem else partner_new + rem
                )
                route, target, send_suffix = edge(
                    participants[partner_rank], ("rd", mask, partner_new))
                self.rounds.append(
                    (route, target, send_suffix, ("rd", mask, newrank)))
                mask <<= 1


def _recursive_doubling(
    ctx, view: TeamView, participants: Sequence[int], value: Any,
    op: str, tag,
) -> Iterator:
    """MPICH-style allreduce among ``participants`` (team indices; caller
    must be one of them).  Handles non-power-of-two sizes with the
    standard fold-in/fold-out steps."""
    acc = _freeze(value)
    if len(participants) == 1:
        return acc
    plans = member_plan(view).rd
    key = id(participants)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _RdPlan(ctx, view, participants)
    conduit = ctx.conduit
    shared = view.shared

    if plan.fold_to is not None:
        route, target, suffix = plan.fold_to
        yield from _post(conduit, route, shared, target, tag + suffix, acc)
    elif plan.fold_from is not None:
        got = yield from _wait_values(ctx, view, tag + plan.fold_from, 1)
        acc = _combine(op, acc, got[0])
        yield ctx.compute_cost(combine_flops(value))

    for route, target, send_suffix, wait_suffix in plan.rounds:
        yield from _post(conduit, route, shared, target, tag + send_suffix, acc)
        got = yield from _wait_values(ctx, view, tag + wait_suffix, 1)
        acc = _combine(op, acc, got[0])
        yield ctx.compute_cost(combine_flops(value))

    if plan.unfold_to is not None:
        route, target, suffix = plan.unfold_to
        yield from _post(conduit, route, shared, target, tag + suffix, acc)
    elif plan.unfold_from is not None:
        got = yield from _wait_values(ctx, view, tag + plan.unfold_from, 1)
        acc = got[0]
    return acc


def allreduce_recursive_doubling(
    ctx, view: TeamView, value: Any, op: str = "sum",
    result_image: Optional[int] = None,
) -> Iterator:
    """Flat recursive-doubling allreduce over the whole team."""
    _combine(op, value, value)
    tag = view.next_op_tag("red-rd")
    macro = getattr(ctx, "macro", None)
    if (
        macro is not None
        and result_image is None
        and not callable(op)
        and op in REPLAY_OPS
    ):
        park = macro.offer(view, "reduce-rd", tag, payload=value, op=op)
        if park is not None:
            replayed = yield park
            if replayed:
                return replayed.value
    acc = yield from _recursive_doubling(
        ctx, view, view.shared.indices, value, op, tag
    )
    if result_image is not None and view.index != result_image:
        return None
    return acc


# ----------------------------------------------------------------------
# The paper's two-level reduction
# ----------------------------------------------------------------------
def allreduce_two_level(
    ctx, view: TeamView, value: Any, op: str = "sum",
    result_image: Optional[int] = None,
) -> Iterator:
    """§IV methodology applied to all-to-all reduction.

    Intranode contributions reach the node leader through direct
    shared-memory transfers; leaders combine across nodes with recursive
    doubling over the interconnect; leaders fan the result back out with
    direct stores.  The interconnect carries exactly
    ``⌈log2(#nodes)⌉ · #leaders`` payload messages instead of the flat
    algorithms' image-count-scaled traffic.
    """
    _combine(op, value, value)
    tag = view.next_op_tag("red-2l")
    n = view.size
    if n == 1:
        return _freeze(value)
    macro = getattr(ctx, "macro", None)
    if (
        macro is not None
        and result_image is None
        and not callable(op)
        and op in REPLAY_OPS
    ):
        park = macro.offer(view, "reduce-2l", tag, payload=value, op=op)
        if park is not None:
            replayed = yield park
            if replayed:
                return replayed.value
    shared = view.shared
    conduit = ctx.conduit
    node = node_plan(ctx, view)
    me = view.index
    out_tag = tag + ("out",)

    if node.to_leader is not None:
        yield from _post(conduit, node.to_leader, shared, node.leader, tag, value)
        if result_image is not None and me != result_image:
            return None
        got = yield from _wait_values(ctx, view, out_tag, 1)
        return got[0]

    slaves = node.slaves
    acc = _freeze(value)
    if slaves:
        contributions = yield from _wait_values(ctx, view, tag, len(slaves))
        for contrib in contributions:
            acc = _combine(op, acc, contrib)
        yield ctx.compute_cost(combine_flops(value) * len(slaves))

    acc = yield from _recursive_doubling(
        ctx, view, shared.hierarchy.leaders, acc, op, tag + ("lead",)
    )

    if result_image is None:
        for slave, route in zip(slaves, node.to_slaves):
            yield from _post(conduit, route, shared, slave, out_tag, acc)
    elif result_image in slaves:
        route = node.to_slaves[slaves.index(result_image)]
        yield from _post(conduit, route, shared, result_image, out_tag, acc)
    if result_image is not None and me != result_image:
        return None
    return acc


# ----------------------------------------------------------------------
# Three-level reduction (§VII future work: NUMA tier below the node tier)
# ----------------------------------------------------------------------
def allreduce_three_level(
    ctx, view: TeamView, value: Any, op: str = "sum",
    result_image: Optional[int] = None,
) -> Iterator:
    """Socket-aware reduction: contributions combine at *socket* leaders
    first (intra-socket coherence, parallel per-socket memory
    controllers), then at node leaders, then across nodes — the
    reduction analogue of :func:`~repro.collectives.barrier.barrier_tdlb_numa`.
    Degenerates to :func:`allreduce_two_level` on single-socket-occupancy
    nodes and to plain recursive doubling on flat teams."""
    _combine(op, value, value)
    tag = view.next_op_tag("red-3l")
    n = view.size
    if n == 1:
        return _freeze(value)
    h = view.shared.hierarchy
    me = view.index
    node_leader = h.leader_of[me]
    my_node = h.node_of[me]
    socket_sets = h.socket_sets(my_node)
    my_socket_set = socket_sets[h.socket_of[me]]
    socket_leader = (
        node_leader if node_leader in my_socket_set else my_socket_set[0]
    )
    out_tag = tag + ("out",)

    # Tier 1 up: combine within my socket at the socket leader.
    if me != socket_leader:
        yield from _send_value(ctx, view, socket_leader, tag + ("s",),
                               value, path="direct")
        if result_image is not None and me != result_image:
            return None
        got = yield from _wait_values(ctx, view, out_tag, 1)
        return got[0]

    acc = _freeze(value)
    socket_slaves = [i for i in my_socket_set if i != me]
    if socket_slaves:
        contributions = yield from _wait_values(
            ctx, view, tag + ("s",), len(socket_slaves))
        for contrib in contributions:
            acc = _combine(op, acc, contrib)
        yield ctx.compute_cost(combine_flops(value) * len(socket_slaves))

    # Tier 2 up: socket leaders combine at the node leader.
    socket_leaders = [
        (node_leader if node_leader in members else members[0])
        for _, members in sorted(socket_sets.items())
    ]
    if me != node_leader:
        yield from _send_value(ctx, view, node_leader, tag + ("n",),
                               acc, path="direct")
    else:
        other_leaders = [sl for sl in socket_leaders if sl != me]
        if other_leaders:
            contributions = yield from _wait_values(
                ctx, view, tag + ("n",), len(other_leaders))
            for contrib in contributions:
                acc = _combine(op, acc, contrib)
            yield ctx.compute_cost(combine_flops(value) * len(other_leaders))
        # Tier 3: across nodes.
        acc = yield from _recursive_doubling(
            ctx, view, h.leaders, acc, op, tag + ("lead",))
        # Tier 2 down.
        for sl in socket_leaders:
            if sl != me:
                yield from _send_value(ctx, view, sl, tag + ("nd",),
                                       acc, path="direct")
    if me != node_leader:
        got = yield from _wait_values(ctx, view, tag + ("nd",), 1)
        acc = got[0]

    # Tier 1 down: socket leaders fan out to their sockets.
    if result_image is None:
        targets = socket_slaves
    else:
        targets = [result_image] if result_image in socket_slaves else []
    for slave in targets:
        yield from _send_value(ctx, view, slave, out_tag, acc, path="direct")
    if result_image is not None and me != result_image:
        return None
    return acc
