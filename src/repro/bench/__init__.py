"""Benchmark harnesses: the Teams Microbenchmark suite and the Figure-1
HPL sweep, plus the paper-style result tables they print."""

from .hplbench import FIGURE1_CONFIGS, FIGURE1_SYSTEMS, figure1
from .microbench import (
    MicrobenchResult,
    barrier_benchmark,
    broadcast_benchmark,
    mpi_barrier_benchmark,
    reduce_benchmark,
    sweep,
)
from .tables import ResultTable, Series, config_label

__all__ = [
    "figure1",
    "FIGURE1_CONFIGS",
    "FIGURE1_SYSTEMS",
    "MicrobenchResult",
    "barrier_benchmark",
    "reduce_benchmark",
    "broadcast_benchmark",
    "mpi_barrier_benchmark",
    "sweep",
    "ResultTable",
    "Series",
    "config_label",
]
