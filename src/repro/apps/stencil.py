"""Jacobi heat diffusion on a strip-decomposed 2-D domain.

The canonical halo-exchange workload: each image owns a horizontal
strip (plus two halo rows in a coarray so neighbours can write them),
steps are pure nearest-neighbour ``put`` + ``sync images``, with a
periodic ``co_max`` convergence check.  Usable on any team, so a domain
can be split into independently solving regions (the paper's
loosely-coupled subproblem decomposition).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["jacobi_solve"]


def jacobi_solve(
    ctx,
    rows_per_image: int,
    cols: int,
    steps: int,
    alpha: float = 0.1,
    check_every: int = 10,
    init=None,
    coarray_name: str = "jacobi_field",
) -> Iterator:
    """Run ``steps`` Jacobi iterations; returns ``(strip, residual)``.

    ``strip`` is my ``rows_per_image × cols`` interior (halo rows
    stripped); ``residual`` is the last globally reduced max update (inf
    if no check ran).  ``init(ctx, field_view)`` may seed initial/
    boundary conditions; the default is a hot left edge.
    """
    if steps < 1 or check_every < 1:
        raise ValueError("steps and check_every must be >= 1")
    me = ctx.this_image()
    n_img = ctx.num_images()
    field = yield from ctx.allocate(coarray_name, (rows_per_image + 2, cols))
    strip = ctx.local(field)
    if init is not None:
        init(ctx, strip)
    else:
        strip[:, 0] = 100.0
        strip[1:-1, 1:] = float(me)

    residual = float("inf")
    for step in range(steps):
        if me > 1:
            yield from ctx.put(field, me - 1, strip[1],
                               index=rows_per_image + 1)
        if me < n_img:
            yield from ctx.put(field, me + 1, strip[rows_per_image], index=0)
        peers = [i for i in (me - 1, me + 1) if 1 <= i <= n_img]
        if peers:
            yield from ctx.sync_images(peers)

        interior = strip[1:-1, 1:-1]
        new = interior + alpha * (
            strip[:-2, 1:-1] + strip[2:, 1:-1]
            + strip[1:-1, :-2] + strip[1:-1, 2:] - 4 * interior
        )
        delta = float(np.abs(new - interior).max())
        interior[...] = new
        yield ctx.compute_cost(5 * interior.size)

        if (step + 1) % check_every == 0:
            residual = yield from ctx.co_max(delta)
    return strip[1:-1].copy(), residual
