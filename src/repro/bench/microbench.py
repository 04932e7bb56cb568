"""The Teams Microbenchmark suite (paper §V-A, reference [4]).

The paper introduced a public microbenchmark suite for team collectives
precisely because teams were too new to have one; this module is our
version of it.  Each benchmark times one collective — barrier,
all-to-all reduction, one-to-all broadcast — over a team, on a chosen
cluster shape (nodes × images-per-node), for every compared system:

* CAF runtime configurations (UHCAF 2-level / 1-level, GASNet-IB
  dissemination, CAF 2.0) via :func:`repro.runtime.run_spmd`;
* MPI tunings (MVAPICH, Open MPI, Open MPI hierarch) via
  :func:`repro.baselines.mpi.run_mpi`.

Timing protocol (shared by every benchmark via :func:`_timed`): two
warm-up operations (populating lazily allocated synchronization cells,
as a real runtime faults in its buffers), then ``iters`` timed
operations; the reported figure is the per-operation mean of the
slowest image — the standard way collective latency is quoted — plus
per-operation fabric traffic from the machine's counters.

Optionally the collective runs on a *subteam* (``team_fraction``) to
exercise the team machinery rather than the initial team.

:func:`sweep` drives a grid of such measurements; cells are independent
simulations, so the grid can fan out across worker processes
(``jobs``, or the ``REPRO_JOBS`` environment variable — see
docs/parallel.md), and a cell that raises is reported as a failed cell
in the table instead of aborting the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.mpi import MPI_TUNINGS, run_mpi
from ..machine import MachineSpec, TrafficSnapshot, paper_cluster
from ..runtime.config import RuntimeConfig
from ..runtime.program import run_spmd
from .tables import ResultTable, Series, config_label

__all__ = [
    "MicrobenchResult",
    "barrier_benchmark",
    "reduce_benchmark",
    "broadcast_benchmark",
    "mpi_barrier_benchmark",
    "sweep",
    "sweep_tasks",
    "sweep_assemble",
]

DEFAULT_ITERS = 10
WARMUP = 2


@dataclass
class MicrobenchResult:
    """Per-operation latency (max over images) plus traffic accounting."""

    seconds_per_op: float
    traffic_per_op: TrafficSnapshot


def _timed(ctx, op: Callable[[], Iterator], iters: int) -> Iterator:
    """The one warmup+timing loop every benchmark body shares.

    Two warm-up operations, then a traffic mark and ``iters`` timed
    ones; returns ``(elapsed_simulated_seconds, traffic_mark)``.
    """
    for _ in range(WARMUP):
        yield from op()
    mark = ctx.machine.traffic()
    t0 = ctx.now
    for _ in range(iters):
        yield from op()
    return ctx.now - t0, mark


def _per_op(
    per_image_times: Sequence[float], traffic: TrafficSnapshot, iters: int
) -> MicrobenchResult:
    """Scale a timed window down to per-operation figures."""
    scaled = TrafficSnapshot(
        inter_messages=traffic.inter_messages // iters,
        inter_bytes=traffic.inter_bytes // iters,
        intra_messages=traffic.intra_messages // iters,
        intra_bytes=traffic.intra_bytes // iters,
    )
    return MicrobenchResult(
        seconds_per_op=max(per_image_times) / iters, traffic_per_op=scaled
    )


def _run_caf(
    body: Callable, num_images: int, images_per_node: int,
    config: RuntimeConfig, spec: Optional[MachineSpec], iters: int,
) -> MicrobenchResult:
    if spec is None:
        spec = paper_cluster(max(-(-num_images // images_per_node), 1))
    result = run_spmd(
        body, num_images=num_images, images_per_node=images_per_node,
        spec=spec, config=config,
    )
    per_image_times, traffic_marks = zip(*result.results)
    return _per_op(per_image_times, result.traffic - traffic_marks[0], iters)


def _subteam(ctx, team_fraction: float):
    """Form a team of the first ``fraction`` of images (or stay initial)."""
    if team_fraction >= 1.0:
        return None
    n = ctx.num_images()
    cut = max(1, int(n * team_fraction))
    color = 1 if ctx.this_image() <= cut else 2
    team = yield from ctx.form_team(color)
    yield from ctx.change_team(team)
    return cut


def barrier_benchmark(
    num_images: int, images_per_node: int, config: RuntimeConfig,
    spec: Optional[MachineSpec] = None, iters: int = DEFAULT_ITERS,
    team_fraction: float = 1.0,
) -> MicrobenchResult:
    """Time ``sync all`` under ``config``."""

    def body(ctx):
        yield from _subteam(ctx, team_fraction)
        return (yield from _timed(ctx, ctx.sync_all, iters))

    return _run_caf(body, num_images, images_per_node, config, spec, iters)


def reduce_benchmark(
    num_images: int, images_per_node: int, config: RuntimeConfig,
    nelems: int = 1, spec: Optional[MachineSpec] = None,
    iters: int = DEFAULT_ITERS, team_fraction: float = 1.0,
) -> MicrobenchResult:
    """Time ``co_sum`` of ``nelems`` float64 elements."""

    def body(ctx):
        yield from _subteam(ctx, team_fraction)
        value = np.full(nelems, float(ctx.this_image()))
        return (yield from _timed(ctx, lambda: ctx.co_sum(value), iters))

    return _run_caf(body, num_images, images_per_node, config, spec, iters)


def broadcast_benchmark(
    num_images: int, images_per_node: int, config: RuntimeConfig,
    nelems: int = 1, spec: Optional[MachineSpec] = None,
    iters: int = DEFAULT_ITERS, team_fraction: float = 1.0,
) -> MicrobenchResult:
    """Time ``co_broadcast`` of ``nelems`` float64 elements from image 1."""

    def body(ctx):
        yield from _subteam(ctx, team_fraction)
        value = np.full(nelems, float(ctx.this_image()))
        return (yield from _timed(
            ctx, lambda: ctx.co_broadcast(value, source_image=1), iters))

    return _run_caf(body, num_images, images_per_node, config, spec, iters)


def mpi_barrier_benchmark(
    num_ranks: int, images_per_node: int, tuning: str,
    spec: Optional[MachineSpec] = None, iters: int = DEFAULT_ITERS,
) -> MicrobenchResult:
    """Time MPI_Barrier under one of the MPI tunings.

    Same protocol and result shape as the CAF benchmarks (latency of the
    slowest rank plus per-operation traffic), so MPI rows are directly
    comparable — including in the notification-count ablations.
    """
    if tuning not in MPI_TUNINGS:
        raise ValueError(f"unknown tuning {tuning!r}")

    def body(ctx):
        return (yield from _timed(ctx, ctx.barrier, iters))

    if spec is None:
        spec = paper_cluster(max(-(-num_ranks // images_per_node), 1))
    res = run_mpi(body, num_ranks=num_ranks, images_per_node=images_per_node,
                  spec=spec, tuning=tuning)
    per_image_times, traffic_marks = zip(*res.results)
    traffic = res.world.machine.traffic() - traffic_marks[0]
    return _per_op(per_image_times, traffic, iters)


def sweep_tasks(
    configs: Sequence[Tuple[int, int]],
    systems: Sequence[Tuple[str, Callable[[int, int], float]]],
) -> Tuple[List[str], list]:
    """The grid's ``(labels, tasks)`` in canonical order: systems-major,
    configs-minor — the one deterministic cell order every consumer of a
    sweep (local run, job server, remote client) agrees on."""
    from ..exec import TaskSpec

    labels = [config_label(i, n) for i, n in configs]
    tasks = [
        TaskSpec(fn, (images, nodes), label=f"{name} @ {label}")
        for name, fn in systems
        for (images, nodes), label in zip(configs, labels)
    ]
    return labels, tasks


def sweep_assemble(
    title: str,
    configs: Sequence[Tuple[int, int]],
    systems: Sequence[Tuple[str, Callable[[int, int], float]]],
    outcomes,
    unit: str = "us",
    scale: float = 1e6,
) -> ResultTable:
    """Fold per-cell outcomes (anything with ``ok``/``value``/``error``
    attributes, in :func:`sweep_tasks` order) back into the table a
    sequential run would have produced."""
    labels = [config_label(i, n) for i, n in configs]
    table = ResultTable(title=title, labels=labels, unit=unit)
    outcomes = iter(outcomes)
    for name, _fn in systems:
        series = Series(name=name, unit=unit)
        for label in labels:
            tres = next(outcomes)
            if tres.ok:
                series.add(label, tres.value * scale)
            else:
                series.mark_failed(label, tres.error or "failed")
        table.add_series(series)
    return table


def sweep(
    title: str,
    configs: Sequence[Tuple[int, int]],
    systems: Sequence[Tuple[str, Callable[[int, int], float]]],
    unit: str = "us",
    scale: float = 1e6,
    jobs=None,
    cache=None,
) -> ResultTable:
    """Run ``fn(images, nodes) → seconds`` for every system over every
    ``(images, nodes)`` configuration; returns the rendered-ready table.

    Cells run through :func:`repro.exec.run_tasks`: independent, fanned
    across workers when ``jobs`` (or ``REPRO_JOBS``) asks for it, served
    from ``cache`` when given, and fault-isolated — a raising cell
    becomes a ``FAIL`` annotation in its series (with the reason listed
    under the table) while the rest of the sweep completes.
    """
    from ..exec import run_tasks

    _labels, tasks = sweep_tasks(configs, systems)
    outcomes = run_tasks(tasks, jobs=jobs, cache=cache)
    return sweep_assemble(title, configs, systems, outcomes,
                          unit=unit, scale=scale)
