"""All-to-all personalized exchange (extension — the methodology's
stress test).

Alltoall moves a *distinct* payload from every image to every other
image, so unlike broadcast/reduce there is no tree to hide behind: the
data volume is inherently n², and all a hierarchy-aware runtime can do
is aggregate.  Three strategies:

* :func:`alltoall_linear_flat` — n−1 direct sends per image, in a
  rank-rotated order so senders don't stampede one target at a time.
* :func:`alltoall_pairwise_flat` — the classic pairwise-exchange
  schedule: n−1 rounds, in round r image i exchanges with ``i XOR r``
  (power-of-two teams) or ``(i ± r) mod n``; still one conduit message
  per datum.
* :func:`alltoall_two_level` — §IV applied: each image hands its
  payloads to its node leader (direct stores), leaders exchange
  *node-aggregated* bundles (one interconnect message per node pair per
  round instead of ipn² image-pair messages), then leaders deliver
  locally.  The wire carries the same bytes but ~ipn² fewer messages —
  exactly the per-message-overhead battle the paper fights.

Input: ``payloads`` — dict (or list) mapping every team index to the
value destined for it.  Output: dict mapping each team index to the
value received from it (self-entry included).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping

from ..teams.team import TeamView
from .reduce import _freeze, _send_value, _wait_values

__all__ = [
    "alltoall_linear_flat",
    "alltoall_pairwise_flat",
    "alltoall_two_level",
]


def _normalize(view: TeamView, payloads) -> Dict[int, Any]:
    n = view.size
    if isinstance(payloads, Mapping):
        items = dict(payloads)
    else:
        items = {i + 1: v for i, v in enumerate(payloads)}
    if sorted(items) != list(range(1, n + 1)):
        raise ValueError(
            f"alltoall needs one payload per team index 1..{n}, "
            f"got keys {sorted(items)}"
        )
    return items


def alltoall_linear_flat(ctx, view: TeamView, payloads) -> Iterator:
    """Each image sends its n−1 payloads directly, rotated by rank."""
    items = _normalize(view, payloads)
    tag = view.next_op_tag("a2a-lin")
    n = view.size
    me = view.index
    out = {me: _freeze(items[me])}
    if n == 1:
        return out
    for shift in range(1, n):
        target = (me - 1 + shift) % n + 1
        yield from _send_value(ctx, view, target, tag, (me, items[target]))
    got = yield from _wait_values(ctx, view, tag, n - 1)
    for sender, value in got:
        out[sender] = value
    return out


def alltoall_pairwise_flat(ctx, view: TeamView, payloads) -> Iterator:
    """n−1 pairwise-exchange rounds (the MPI_Alltoall long-message
    schedule): round r pairs me with (me−1 ± r) mod n."""
    items = _normalize(view, payloads)
    tag = view.next_op_tag("a2a-pw")
    n = view.size
    me = view.index
    out = {me: _freeze(items[me])}
    rank = me - 1
    for r in range(1, n):
        send_to = (rank + r) % n + 1
        recv_from = (rank - r) % n + 1
        yield from _send_value(ctx, view, send_to, tag + (r,),
                               (me, items[send_to]))
        got = yield from _wait_values(ctx, view, tag + (r,), 1)
        sender, value = got[0]
        assert sender == recv_from
        out[sender] = value
    return out


def alltoall_two_level(ctx, view: TeamView, payloads) -> Iterator:
    """§IV applied to alltoall: node-aggregated leader exchange."""
    items = _normalize(view, payloads)
    tag = view.next_op_tag("a2a-2l")
    n = view.size
    me = view.index
    out = {me: _freeze(items[me])}
    if n == 1:
        return out
    h = view.shared.hierarchy
    leader = h.leader_of[me]
    my_node = h.node_of[me]

    # Phase 1: hand my outgoing payloads to my leader, bucketed by the
    # destination's node (self-node payloads go straight into the local
    # delivery pool).
    up_tag = tag + ("up",)
    bundle: Dict[int, List] = {}
    for dest, value in items.items():
        if dest == me:
            continue
        bundle.setdefault(h.node_of[dest], []).append((me, dest, value))
    if me != leader:
        yield from _send_value(ctx, view, leader, up_tag, bundle,
                               path="direct")
        got = yield from _wait_values(ctx, view, tag + ("final", me), 1)
        out.update(got[0])
        return out

    slaves = h.slaves_of(me)
    node_outgoing: Dict[int, List] = {node: list(triples)
                                      for node, triples in bundle.items()}
    if slaves:
        contributions = yield from _wait_values(ctx, view, up_tag, len(slaves))
        for contrib in contributions:
            for node, triples in contrib.items():
                node_outgoing.setdefault(node, []).extend(triples)

    # Phase 2: pairwise exchange of node bundles among leaders.
    leaders = h.leaders
    num_leaders = len(leaders)
    my_rank = h.leader_rank[me]
    arrived: List = list(node_outgoing.pop(my_node, []))
    lead_tag = tag + ("lead",)
    for r in range(1, num_leaders):
        peer = leaders[(my_rank + r) % num_leaders]
        peer_node = h.node_of[peer]
        outgoing = node_outgoing.pop(peer_node, [])
        yield from _send_value(ctx, view, peer, lead_tag + (r,), outgoing)
        got = yield from _wait_values(ctx, view, lead_tag + (r,), 1)
        arrived.extend(got[0])

    # Phase 3: local delivery.
    per_member: Dict[int, Dict[int, Any]] = {}
    for sender, dest, value in arrived:
        per_member.setdefault(dest, {})[sender] = value
    out.update(per_member.pop(me, {}))
    for slave in slaves:
        yield from _send_value(ctx, view, slave, tag + ("final", slave),
                               per_member.get(slave, {}), path="direct")
    return out
