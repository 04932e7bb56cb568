"""Distributed conjugate gradient for the 1-D Poisson operator.

The model latency-bound solver: every iteration costs one halo exchange
(pairwise ``sync images``) and three global dot products (``co_sum``),
so wall time at scale is dominated by allreduce latency — the workload
class the paper's two-level reduction targets.

The operator is the SPD tridiagonal ``[-1, 2, -1]`` matrix; rows are
block-distributed.  CG on an n×n SPD system converges in at most n
iterations in exact arithmetic, which the tests rely on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["cg_solve", "poisson_matrix"]


def poisson_matrix(n: int) -> np.ndarray:
    """Dense reference of the [-1, 2, -1] operator (for verification)."""
    return 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def cg_solve(ctx, b_global: np.ndarray, max_iters: int = 0,
             tol: float = 1e-20, coarray_name: str = "cg_halo") -> Iterator:
    """Solve ``A x = b`` with CG; returns ``(x_local, iters, residual)``.

    SPMD collective: every image of the current team must call it with
    the same ``b_global`` (each uses only its own row block).  The
    returned ``x_local`` is this image's block of the solution;
    ``residual`` is the final global 2-norm of ``r``.
    """
    n = len(b_global)
    me = ctx.this_image()
    n_img = ctx.num_images()
    if n % n_img != 0:
        raise ValueError(f"images ({n_img}) must divide unknowns ({n})")
    rows = n // n_img
    lo = (me - 1) * rows
    if max_iters <= 0:
        max_iters = n + 10

    b = np.asarray(b_global[lo:lo + rows], dtype=float).copy()
    x = np.zeros(rows)
    halo = yield from ctx.allocate(coarray_name, (2,))

    def exchange(vec):
        if me > 1:
            yield from ctx.put(halo, me - 1, vec[0], index=1)
        if me < n_img:
            yield from ctx.put(halo, me + 1, vec[-1], index=0)
        peers = [i for i in (me - 1, me + 1) if 1 <= i <= n_img]
        if peers:
            yield from ctx.sync_images(peers)
        left = ctx.local(halo)[0] if me > 1 else 0.0
        right = ctx.local(halo)[1] if me < n_img else 0.0
        return left, right

    def matvec(vec):
        left, right = yield from exchange(vec)
        y = 2.0 * vec
        y[1:] -= vec[:-1]
        y[:-1] -= vec[1:]
        y[0] -= left
        y[-1] -= right
        yield ctx.compute_cost(5 * rows)
        return y

    r = b - (yield from matvec(x))
    p = r.copy()
    rs = yield from ctx.co_sum(float(r @ r))
    iters = 0
    for iters in range(1, max_iters + 1):
        ap = yield from matvec(p)
        pap = yield from ctx.co_sum(float(p @ ap))
        alpha = rs / pap
        x += alpha * p
        r -= alpha * ap
        rs_new = yield from ctx.co_sum(float(r @ r))
        if rs_new < tol:
            rs = rs_new
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
        yield ctx.compute_cost(6 * rows)
    return x, iters, float(np.sqrt(max(rs, 0.0)))
