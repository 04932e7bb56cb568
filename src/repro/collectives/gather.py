"""All-gather collectives (extension beyond the paper's three ops).

The companion technical report applies the §IV methodology to barrier,
all-to-all reduction, and one-to-all broadcast; allgather is the natural
fourth member of the family (and what CAF programs build manually with
puts + a barrier).  Three strategies mirroring the reduction set:

* :func:`allgather_linear_flat` — everyone deposits at image 1, which
  redistributes the assembled list; the naive baseline.
* :func:`allgather_bruck_flat` — Bruck's ⌈log₂ n⌉-round doubling
  exchange over the whole team, hierarchy-unaware.
* :func:`allgather_two_level` — §IV applied: intranode gather at each
  leader (direct stores), Bruck among leaders with node-aggregated
  payloads, intranode fan-out.  The interconnect carries each datum to a
  node once instead of once per image.

All return a list of the contributions ordered by team index.
"""

from __future__ import annotations

from typing import Any, Iterator, List

from .reduce import _freeze, _send_value, _wait_values
from ..teams.team import TeamView

__all__ = [
    "allgather_linear_flat",
    "allgather_bruck_flat",
    "allgather_two_level",
]


def allgather_linear_flat(ctx, view: TeamView, value: Any) -> Iterator:
    """Gather-to-root + serial fan-out of the whole assembled list."""
    tag = view.next_op_tag("ag-lin")
    n = view.size
    if n == 1:
        return [_freeze(value)]
    root = 1
    me = view.index
    out_tag = tag + ("out",)
    if me != root:
        yield from _send_value(ctx, view, root, tag, (me, _freeze(value)))
        got = yield from _wait_values(ctx, view, out_tag, 1)
        return got[0]
    pairs = [(root, _freeze(value))]
    pairs += (yield from _wait_values(ctx, view, tag, n - 1))
    assembled = [v for _, v in sorted(pairs)]
    for target in range(2, n + 1):
        yield from _send_value(ctx, view, target, out_tag, assembled)
    return assembled


def _bruck(ctx, view: TeamView, participants: List[int], mine: Any,
           tag) -> Iterator:
    """Bruck allgather among ``participants`` (team indices); returns the
    list ordered by participant position."""
    n = len(participants)
    if n == 1:
        return [mine]
    rank = participants.index(view.index)
    # blocks[i] holds the datum of participant (rank + i) mod n
    blocks: dict[int, Any] = {0: mine}
    dist = 1
    step = 0
    while dist < n:
        send_to = participants[(rank - dist) % n]
        recv_count = min(dist, n - dist)
        chunk = {i: blocks[i] for i in range(recv_count)}
        yield from _send_value(ctx, view, send_to, tag + (step,), chunk)
        got = yield from _wait_values(ctx, view, tag + (step,), 1)
        for i, v in got[0].items():
            blocks[i + dist] = v
        dist <<= 1
        step += 1
    return [blocks[(p - rank) % n] for p in range(n)]


def allgather_bruck_flat(ctx, view: TeamView, value: Any) -> Iterator:
    """⌈log₂ n⌉-round Bruck exchange over the whole team."""
    tag = view.next_op_tag("ag-bruck")
    participants = list(range(1, view.size + 1))
    result = yield from _bruck(ctx, view, participants, _freeze(value), tag)
    return result


def allgather_two_level(ctx, view: TeamView, value: Any) -> Iterator:
    """Intranode gather → leader Bruck → intranode fan-out."""
    tag = view.next_op_tag("ag-2l")
    n = view.size
    if n == 1:
        return [_freeze(value)]
    h = view.shared.hierarchy
    me = view.index
    leader = h.leader_of[me]
    out_tag = tag + ("out",)

    if me != leader:
        yield from _send_value(ctx, view, leader, tag, (me, _freeze(value)),
                               path="direct")
        got = yield from _wait_values(ctx, view, out_tag, 1)
        return got[0]

    slaves = h.slaves_of(me)
    pairs = [(me, _freeze(value))]
    if slaves:
        pairs += (yield from _wait_values(ctx, view, tag, len(slaves)))
    node_chunk = sorted(pairs)  # [(index, value)] for my whole node

    chunks = yield from _bruck(ctx, view, h.leaders, node_chunk,
                               tag + ("lead",))
    merged = sorted(pair for chunk in chunks for pair in chunk)
    assembled = [v for _, v in merged]
    for slave in slaves:
        yield from _send_value(ctx, view, slave, out_tag, assembled,
                               path="direct")
    return assembled
