"""Rabenseifner's allreduce: reduce-scatter + allgather.

The bandwidth-optimal large-message algorithm (MPICH's choice above the
rendezvous threshold): recursive *halving* scatters reduced segments so
every round moves half the previous payload — total traffic
``2·(n−1)/n·size`` per image versus recursive doubling's
``log₂(n)·size`` — then recursive doubling gathers the segments back.

Included as the large-payload member of the reduction family: the E12
ablation locates the crossover where it overtakes both recursive
doubling and the paper's two-level algorithm, closing the strategy map
(latency-bound → two-level; bandwidth-bound → Rabenseifner).

Array payloads only (segments must be sliceable); scalars fall back to
recursive doubling, matching real MPI's size-based dispatch.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from ..teams.team import TeamView
from .reduce import (
    _combine,
    _recursive_doubling,
    _send_value,
    _wait_values,
)
from .base import combine_flops

__all__ = ["allreduce_rabenseifner"]


def _chunk_bounds(size: int, pow2: int) -> List[Tuple[int, int]]:
    """Split [0, size) into pow2 contiguous chunks (first ones larger)."""
    bounds = []
    base, extra = divmod(size, pow2)
    lo = 0
    for i in range(pow2):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def allreduce_rabenseifner(
    ctx, view: TeamView, value: Any, op: str = "sum",
    result_image: Optional[int] = None,
) -> Iterator:
    """Reduce-scatter + allgather allreduce over the whole team."""
    _combine(op, value, value)  # validate op uniformly
    n = view.size
    arr = np.asarray(value)
    if n == 1:
        out = arr.copy()
        return out if isinstance(value, np.ndarray) else value
    if arr.ndim == 0 or arr.size < n or op == "maxloc":
        # too small to segment (or a pairwise-semantic op whose payload
        # cannot be sliced): the latency-bound regime anyway
        if op == "maxloc":
            arr = None  # keep the original pair payload below
        tag = view.next_op_tag("red-rab-small")
        result = yield from _recursive_doubling(
            ctx, view, view.shared.indices, value, op, tag)
        if result_image is not None and view.index != result_image:
            return None
        return result

    tag = view.next_op_tag("red-rab")
    rank = view.index - 1
    pow2 = 1 << (n.bit_length() - 1)
    rem = n - pow2
    acc = arr.astype(arr.dtype, copy=True)

    # ---- fold the extras into the power-of-two core ---------------------
    newrank = -1
    if rank < 2 * rem:
        if rank % 2 == 1:
            yield from _send_value(ctx, view, rank, tag + ("fold", rank), acc)
        else:
            got = yield from _wait_values(ctx, view, tag + ("fold", rank + 1), 1)
            acc = _combine(op, acc, got[0])
            yield ctx.compute_cost(combine_flops(acc))
            newrank = rank // 2
    else:
        newrank = rank - rem

    def real_rank(new: int) -> int:
        return new * 2 if new < rem else new + rem

    chunks = _chunk_bounds(arr.size, pow2)
    flat = acc.reshape(-1) if newrank >= 0 else None

    if newrank >= 0:
        # ---- reduce-scatter by recursive halving -------------------------
        send_idx, last_idx = 0, pow2
        mask = pow2 >> 1
        step = 0
        while mask > 0:
            partner_new = newrank ^ mask
            partner = real_rank(partner_new) + 1
            mid = (send_idx + last_idx) // 2
            if newrank < partner_new:
                send_lo, send_hi = mid, last_idx
                keep_lo, keep_hi = send_idx, mid
            else:
                send_lo, send_hi = send_idx, mid
                keep_lo, keep_hi = mid, last_idx
            a = chunks[send_lo][0]
            b = chunks[send_hi - 1][1]
            yield from _send_value(
                ctx, view, partner, tag + ("rs", step, partner_new),
                flat[a:b].copy(),
            )
            got = yield from _wait_values(
                ctx, view, tag + ("rs", step, newrank), 1)
            ka = chunks[keep_lo][0]
            kb = chunks[keep_hi - 1][1]
            flat[ka:kb] = _combine(op, flat[ka:kb], got[0])
            yield ctx.compute_cost(kb - ka)
            send_idx, last_idx = keep_lo, keep_hi
            mask >>= 1
            step += 1

        # ---- allgather by recursive doubling ------------------------------
        mask = 1
        step = 0
        while mask < pow2:
            partner_new = newrank ^ mask
            partner = real_rank(partner_new) + 1
            a = chunks[send_idx][0]
            b = chunks[last_idx - 1][1]
            yield from _send_value(
                ctx, view, partner, tag + ("ag", step, partner_new),
                (send_idx, last_idx, flat[a:b].copy()),
            )
            got = yield from _wait_values(
                ctx, view, tag + ("ag", step, newrank), 1)
            o_lo, o_hi, data = got[0]
            flat[chunks[o_lo][0]:chunks[o_hi - 1][1]] = data
            send_idx = min(send_idx, o_lo)
            last_idx = max(last_idx, o_hi)
            mask <<= 1
            step += 1
        acc = flat.reshape(arr.shape)

    # ---- unfold to the extras -------------------------------------------
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield from _send_value(ctx, view, rank + 2,
                                   tag + ("unfold", rank + 1), acc)
        else:
            got = yield from _wait_values(ctx, view, tag + ("unfold", rank), 1)
            acc = got[0]

    if result_image is not None and view.index != result_image:
        return None
    return acc
