"""One-to-all broadcast (``co_broadcast``) algorithms.

* :func:`bcast_binomial_flat` — classic binomial tree over the whole
  team (ranks rotated so the source is the root), hierarchy-unaware:
  tree edges cross nodes arbitrarily and same-node hops pay the conduit
  loopback on an unaware runtime.
* :func:`bcast_two_level` — the paper's methodology: the payload travels
  the interconnect only between node leaders (binomial tree over
  leaders), then fans out inside each node with direct shared-memory
  copies.  Up to ~3× over the flat tree in the paper's runs.

All functions return the broadcast value at every image.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..teams.team import TeamView
from .base import binomial_peers, member_plan, node_plan
from .reduce import _freeze, _post, _send_value, _wait_values

__all__ = ["bcast_binomial_flat", "bcast_two_level"]


def _check_source(view: TeamView, source_image: int) -> None:
    if not 1 <= source_image <= view.size:
        raise ValueError(
            f"source_image {source_image} out of range [1, {view.size}]"
        )


def bcast_binomial_flat(
    ctx, view: TeamView, value: Any, source_image: int
) -> Iterator:
    """Binomial tree over the whole team, root at ``source_image``."""
    _check_source(view, source_image)
    tag = view.next_op_tag("bc-bin")
    n = view.size
    me = view.index
    if n == 1:
        return _freeze(value)
    vrank = (me - source_image) % n
    parent, children = binomial_peers(vrank, n)
    if parent is None:
        payload = _freeze(value)
    else:
        got = yield from _wait_values(ctx, view, tag, 1)
        payload = got[0]
    for child in children:
        target = (child + source_image - 1) % n + 1
        yield from _send_value(ctx, view, target, tag, payload)
    return payload


def bcast_two_level(
    ctx, view: TeamView, value: Any, source_image: int
) -> Iterator:
    """§IV methodology applied to broadcast.

    The source's node leader becomes the root of a binomial tree over
    node leaders (inter-node payload movement happens exactly once per
    receiving node); each leader then copies to its intranode set with
    direct stores.  If the source is not its node's leader it first hands
    the payload to the leader over shared memory.
    """
    _check_source(view, source_image)
    tag = view.next_op_tag("bc-2l")
    n = view.size
    me = view.index
    if n == 1:
        return _freeze(value)
    macro = getattr(ctx, "macro", None)
    if macro is not None:
        park = macro.offer(view, "bcast-2l", tag, payload=value,
                           source=source_image)
        if park is not None:
            replayed = yield park
            if replayed:
                return replayed.value
    shared = view.shared
    conduit = ctx.conduit
    node = node_plan(ctx, view)
    my_leader = node.leader
    source_leader = shared.hierarchy.leader_of[source_image]
    lead_tag = tag + ("lead",)
    fan_tag = tag + ("fan",)

    # Phase 0: source hands off to its node leader if needed.
    if me == source_image and my_leader != me:
        yield from _post(conduit, node.to_leader, shared, my_leader,
                         lead_tag + ("seed",), value)

    if me == my_leader:
        # Phase 1: binomial tree among leaders, rooted at the source's leader.
        if me == source_leader:
            if me == source_image:
                payload = _freeze(value)
            else:
                got = yield from _wait_values(ctx, view, lead_tag + ("seed",), 1)
                payload = got[0]
        else:
            payload = None
        plans = member_plan(view).bcast
        edges = plans.get(source_leader)
        if edges is None:
            edges = plans[source_leader] = _leader_edges(ctx, view, source_leader)
        has_parent, children = edges
        if has_parent:
            got = yield from _wait_values(ctx, view, lead_tag, 1)
            payload = got[0]
        for route, target in children:
            yield from _post(conduit, route, shared, target, lead_tag, payload)
        # Phase 2: intranode fan-out with direct stores.
        for slave, route in zip(node.slaves, node.to_slaves):
            if slave == source_image:
                continue  # the source already holds the payload
            yield from _post(conduit, route, shared, slave, fan_tag, payload)
        return payload

    # Non-leader, non-source images wait for their leader's copy.
    if me == source_image:
        return _freeze(value)
    got = yield from _wait_values(ctx, view, fan_tag, 1)
    return got[0]


def _leader_edges(ctx, view: TeamView, source_leader: int) -> tuple:
    """A leader's place in the leader tree rooted at ``source_leader``:
    whether it has a parent, and its children in send order (largest
    stride first), each as ``(route, team index)``."""
    shared = view.shared
    h = shared.hierarchy
    leaders = h.leaders
    num_leaders = len(leaders)
    root_rank = h.leader_rank[source_leader]
    vrank = (h.leader_rank[view.index] - root_rank) % num_leaders
    parent, children = binomial_peers(vrank, num_leaders)
    edges = []
    for child in children:
        target = leaders[(child + root_rank) % num_leaders]
        edges.append((
            ctx.conduit.route(view.proc, shared.proc_of(target), "auto"), target
        ))
    return parent is not None, edges
