"""Importable sweep cells and experiment plans for the bench grids.

The paper's §6 evaluation is a grid: experiments (barrier / reduce /
broadcast) × compared systems × ``(images, nodes)`` configurations ×
payload sizes.  This module is the *single source of truth* for that
grid:

* the **cell functions** (``barrier_cell`` …) are module-level — they
  pickle into worker processes and fingerprint stably into cache keys
  from any entry point.  (They used to live in ``repro.bench.__main__``,
  where running the CLI renames the module to ``__main__`` and every
  cache key silently changes identity — the CLI and any other entry
  point could never share a cache that way.)
* :func:`hpl_cell` is one Figure 1 point and :func:`notifications_cell`
  one barrier's message counts (E6), for :mod:`repro.report`'s claims;
* a :class:`SweepPlan` names one table of the experiment — title,
  configs, systems, and which speedup rows follow it; and
* :func:`plan_experiment` / :func:`plan_tasks` / :func:`render_results`
  turn a plan into the canonical ordered cell list and fold per-cell
  outcomes back into output **byte-identical** to the sequential CLI,
  whatever order or process the cells ran in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..hpl import run_hpl
from ..machine import paper_cluster
from ..runtime.config import (
    CAF20_OPENUH,
    GASNET_IB_DISSEMINATION,
    NAMED_CONFIGS,
    UHCAF_1LEVEL,
    UHCAF_2LEVEL,
    RuntimeConfig,
)
from ..runtime.program import run_spmd
from .microbench import (
    barrier_benchmark,
    broadcast_benchmark,
    mpi_barrier_benchmark,
    reduce_benchmark,
    sweep_assemble,
    sweep_tasks,
)

__all__ = [
    "barrier_cell",
    "mpi_barrier_cell",
    "reduce_cell",
    "broadcast_cell",
    "hpl_cell",
    "notifications_cell",
    "SweepPlan",
    "EXPERIMENTS",
    "plan_experiment",
    "plan_tasks",
    "render_results",
]


# ----------------------------------------------------------------------
# Sweep cells — module level (not closures) so they pickle into workers
# and fingerprint identically from every entry point.
# ----------------------------------------------------------------------
def barrier_cell(config: RuntimeConfig, ipn: int,
                 images: int, nodes: int) -> float:
    return barrier_benchmark(images, ipn, config).seconds_per_op


def mpi_barrier_cell(tuning: str, ipn: int, images: int, nodes: int) -> float:
    return mpi_barrier_benchmark(images, ipn, tuning).seconds_per_op


def reduce_cell(config: RuntimeConfig, ipn: int, nelems: int,
                images: int, nodes: int) -> float:
    return reduce_benchmark(images, ipn, config,
                            nelems=nelems).seconds_per_op


def broadcast_cell(config: RuntimeConfig, ipn: int, nelems: int,
                   images: int, nodes: int) -> float:
    return broadcast_benchmark(images, ipn, config,
                               nelems=nelems).seconds_per_op


def hpl_cell(config_name: str, n: int, nb: int,
             images: int, nodes: int) -> float:
    """GFLOP/s of HPL at ``n``/``nb`` under a named runtime config."""
    return run_hpl(n=n, nb=nb, num_images=images,
                   images_per_node=images // nodes,
                   config=NAMED_CONFIGS[config_name]).gflops


def notifications_cell(config: RuntimeConfig, ipn: int,
                       images: int, nodes: int) -> Tuple[int, int]:
    """``(total, inter-node)`` messages of one ``sync all``."""
    def main(ctx):
        yield from ctx.sync_all()

    traffic = run_spmd(main, num_images=images, images_per_node=ipn,
                       spec=paper_cluster(nodes), config=config).traffic
    return traffic.total_messages, traffic.inter_messages


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPlan:
    """One table of an experiment: a titled grid plus its speedup rows."""

    title: str
    configs: Tuple[Tuple[int, int], ...]
    systems: Tuple[Tuple[str, Callable], ...]
    #: ``(fast, slow)`` series pairs rendered as speedup lines after the
    #: table, in order
    speedups: Tuple[Tuple[str, str], ...] = ()

    @property
    def cell_count(self) -> int:
        return len(self.configs) * len(self.systems)


#: experiments a sweep spec may name (the hpl figure is not a grid of
#: independent cells and stays CLI-local)
EXPERIMENTS = ("barrier", "reduce", "broadcast")


def plan_experiment(experiment: str, nodes: Sequence[int],
                    ipn: int = 8, nelems: int = 1) -> List[SweepPlan]:
    """The tables (in print order) of one experiment over ``nodes``."""
    nodes = list(nodes)
    if experiment == "barrier":
        return [
            SweepPlan(
                title="E1: barrier latency, 1 image per node "
                      "(flat hierarchy)",
                configs=tuple((n, n) for n in nodes),
                systems=(
                    ("TDLB (UHCAF 2level)",
                     functools.partial(barrier_cell, UHCAF_2LEVEL, 1)),
                    ("pure dissemination (UHCAF 1level)",
                     functools.partial(barrier_cell, UHCAF_1LEVEL, 1)),
                ),
            ),
            SweepPlan(
                title=f"E2: barrier latency, {ipn} images per node",
                configs=tuple((n * ipn, n) for n in nodes),
                systems=(
                    ("TDLB (UHCAF 2level)",
                     functools.partial(barrier_cell, UHCAF_2LEVEL, ipn)),
                    ("UHCAF pure dissemination",
                     functools.partial(barrier_cell, UHCAF_1LEVEL, ipn)),
                    ("GASNet IB dissemination",
                     functools.partial(barrier_cell,
                                       GASNET_IB_DISSEMINATION, ipn)),
                    ("CAF 2.0",
                     functools.partial(barrier_cell, CAF20_OPENUH, ipn)),
                    ("MPI MVAPICH",
                     functools.partial(mpi_barrier_cell, "mvapich", ipn)),
                    ("MPI Open MPI hierarch",
                     functools.partial(mpi_barrier_cell,
                                       "openmpi-hierarch", ipn)),
                ),
                speedups=(("TDLB (UHCAF 2level)",
                           "UHCAF pure dissemination"),),
            ),
        ]
    if experiment == "reduce":
        return [
            SweepPlan(
                title=f"E3: co_sum latency, {nelems} element(s), "
                      f"{ipn} images per node",
                configs=tuple((n * ipn, n) for n in nodes),
                systems=(
                    ("two-level reduction",
                     functools.partial(reduce_cell, UHCAF_2LEVEL, ipn,
                                       nelems)),
                    ("default UHCAF reduction",
                     functools.partial(reduce_cell, UHCAF_1LEVEL, ipn,
                                       nelems)),
                ),
                speedups=(("two-level reduction",
                           "default UHCAF reduction"),),
            ),
        ]
    if experiment == "broadcast":
        return [
            SweepPlan(
                title=f"E4: co_broadcast latency, {nelems} element(s), "
                      f"{ipn} images per node",
                configs=tuple((n * ipn, n) for n in nodes),
                systems=(
                    ("two-level broadcast",
                     functools.partial(broadcast_cell, UHCAF_2LEVEL, ipn,
                                       nelems)),
                    ("flat binomial broadcast",
                     functools.partial(broadcast_cell, UHCAF_1LEVEL, ipn,
                                       nelems)),
                ),
                speedups=(("two-level broadcast",
                           "flat binomial broadcast"),),
            ),
        ]
    raise ValueError(f"unknown experiment {experiment!r}; "
                     f"have {EXPERIMENTS}")


def plan_tasks(plans: Sequence[SweepPlan]) -> list:
    """Every cell of ``plans`` as TaskSpecs, in canonical order: plans
    in print order, systems-major, configs-minor within each plan."""
    tasks = []
    for plan in plans:
        _labels, plan_t = sweep_tasks(plan.configs, plan.systems)
        tasks.extend(plan_t)
    return tasks


def render_results(plans: Sequence[SweepPlan], outcomes) -> str:
    """Fold ordered per-cell outcomes into the experiment's printed
    output: each table, then its speedup rows, blank-line separated —
    exactly what the sequential CLI prints."""
    outcomes = iter(outcomes)
    blocks: List[str] = []
    for plan in plans:
        cell_results = [next(outcomes) for _ in range(plan.cell_count)]
        table = sweep_assemble(plan.title, plan.configs, plan.systems,
                               cell_results)
        blocks.append(table.render())
        for fast, slow in plan.speedups:
            blocks.append(table.speedup_row(fast, slow))
    return "\n\n".join(blocks)
