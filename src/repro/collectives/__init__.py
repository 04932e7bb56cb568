"""Team collective operations — the paper's core contribution (§IV).

Barriers (flat dissemination variants, linear, and the paper's TDLB),
all-to-all reductions, and one-to-all broadcasts, each in flat and
memory-hierarchy-aware two-level forms, selectable by name through
:mod:`~repro.collectives.registry`.
"""

from .barrier import (
    barrier_dissemination,
    barrier_dissemination_mcs,
    barrier_dissemination_twowait,
    barrier_linear,
    barrier_tdlb,
    barrier_tdlb_numa,
    barrier_tournament,
)
from .alltoall import (
    alltoall_linear_flat,
    alltoall_pairwise_flat,
    alltoall_two_level,
)
from .base import NOTIFY_NBYTES, binomial_peers, dissemination_rounds, payload_nbytes
from .macro import MacroCollectives, Replayed
from .gather import (
    allgather_bruck_flat,
    allgather_linear_flat,
    allgather_two_level,
)
from .broadcast import bcast_binomial_flat, bcast_linear_flat, bcast_two_level
from .reduce import (
    REDUCE_OPS,
    allreduce_binomial_flat,
    allreduce_linear_flat,
    allreduce_recursive_doubling,
    allreduce_three_level,
    allreduce_two_level,
)
from .rabenseifner import allreduce_rabenseifner
from .registry import (
    ALLGATHERS,
    ALLTOALLS,
    BARRIERS,
    BROADCASTS,
    REDUCTIONS,
    resolve,
)

__all__ = [
    "barrier_dissemination",
    "barrier_dissemination_mcs",
    "barrier_dissemination_twowait",
    "barrier_linear",
    "barrier_tdlb",
    "barrier_tdlb_numa",
    "barrier_tournament",
    "allgather_linear_flat",
    "allgather_bruck_flat",
    "allgather_two_level",
    "ALLGATHERS",
    "ALLTOALLS",
    "alltoall_linear_flat",
    "alltoall_pairwise_flat",
    "alltoall_two_level",
    "bcast_binomial_flat",
    "bcast_linear_flat",
    "bcast_two_level",
    "allreduce_binomial_flat",
    "allreduce_linear_flat",
    "allreduce_recursive_doubling",
    "allreduce_two_level",
    "allreduce_rabenseifner",
    "allreduce_three_level",
    "REDUCE_OPS",
    "BARRIERS",
    "REDUCTIONS",
    "BROADCASTS",
    "resolve",
    "NOTIFY_NBYTES",
    "MacroCollectives",
    "Replayed",
    "binomial_peers",
    "dissemination_rounds",
    "payload_nbytes",
]
