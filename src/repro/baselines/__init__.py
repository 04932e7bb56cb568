"""Comparator stacks the paper evaluates against: GASNet conduits,
Rice CAF 2.0, and a miniature MPI for E2's three MPI_Barrier lines."""

from . import caf20, gasnet
from .mpi import MPI_TUNINGS, run_mpi

__all__ = [
    "caf20",
    "gasnet",
    "run_mpi",
    "MPI_TUNINGS",
]
