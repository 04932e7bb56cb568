"""Figure-1 harness: HPL GFLOP/s across the paper's five configurations.

Regenerates the exact series of Figure 1 — ``UHCAF 2level``,
``UHCAF 1level``, ``CAF2.0 OpenUH backend``, ``CAF2.0 GFortran
backend``, ``Open MPI (No tuning)`` — at the paper's x-axis points
``4(4), 16(16), 16(2), 64(8), 256(32)``.

Problem size: the paper does not state N; we use N=6144, NB=128, the
size at which the calibrated model reproduces the paper's absolute
256-core numbers (93.3 vs 95 GFLOP/s for UHCAF 2level) — see
EXPERIMENTS.md.  ``quick=True`` shrinks the sweep for CI-speed runs
while preserving the orderings.

Each point is one :func:`~repro.bench.cells.hpl_cell` task, so the
figure fans out over ``jobs`` workers, and its cells are the ones
:mod:`repro.report`'s E5 claims read: with one result cache, the figure
and the report simulate each point once.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from ..exec import TaskSpec
from .cells import hpl_cell
from .microbench import sweep, sweep_tasks
from .tables import ResultTable

__all__ = ["FIGURE1_CONFIGS", "FIGURE1_SYSTEMS", "figure1", "figure1_cells",
           "FIGURE1_N", "FIGURE1_NB"]

#: the paper's x axis: (images, nodes)
FIGURE1_CONFIGS: List[Tuple[int, int]] = [
    (4, 4), (16, 16), (16, 2), (64, 8), (256, 32),
]

#: legend name → runtime config name, in the paper's legend order
FIGURE1_SYSTEMS: List[Tuple[str, str]] = [
    ("UHCAF 2level", "uhcaf-2level"),
    ("UHCAF 1level", "uhcaf-1level"),
    ("CAF2.0 OpenUH backend", "caf2.0-openuh"),
    ("CAF2.0 GFortran backend", "caf2.0-gfortran"),
    ("Open MPI (No tuning)", "openmpi-gcc"),
]

FIGURE1_N = 6144
FIGURE1_NB = 128


def _grid(quick: bool):
    """``(N, configs, systems)``: ``quick`` is N=1024 at three points."""
    n, configs = ((1024, [(4, 4), (16, 2), (64, 8)]) if quick
                  else (FIGURE1_N, FIGURE1_CONFIGS))
    return n, configs, [
        (legend, functools.partial(hpl_cell, cfg, n, FIGURE1_NB))
        for legend, cfg in FIGURE1_SYSTEMS]


def figure1_cells(quick: bool = False) -> Dict[Tuple[str, str], TaskSpec]:
    """The sweep's tasks keyed ``(legend, config label)``, in its order."""
    _n, configs, systems = _grid(quick)
    labels, tasks = sweep_tasks(configs, systems)
    return dict(zip([(legend, label) for legend, _ in systems
                     for label in labels], tasks))


def figure1(quick: bool = False, jobs=None, cache=None) -> ResultTable:
    """Run the Figure-1 sweep; returns GFLOP/s per system per config."""
    n, configs, systems = _grid(quick)
    return sweep(f"Figure 1: HPL performance, N={n}, NB={FIGURE1_NB} "
                 "(GFLOP/s)", configs, systems, unit="GFLOP/s", scale=1.0,
                 jobs=jobs, cache=cache)
