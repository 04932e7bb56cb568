"""Generalized strategy registry: ``kind`` × ``algorithm`` with
capability metadata.

The runtime config names a strategy per operation
(:class:`repro.runtime.config.RuntimeConfig`); the context resolves it
here.  Registering by name keeps benchmark definitions declarative — a
comparison line in the harness is just a config with different strings.

Every variant is registered through :func:`register`, which **requires**
the macro capability to be declared explicitly: ``macro_kind`` is the
window kind the strategy joins with in the macro-event coordinator
(:data:`repro.collectives.macro.REPLAYABLE`), or ``None`` for a strategy
that always runs fine-grained.  Making the declaration mandatory is the
registry-hygiene contract: a new algorithm family (like the
shared-memory-window one) cannot be added without stating whether the
extreme-scale sweep may bet a macro-collapsed run on it — variants
declared ``macro_kind=None`` fine-pin gracefully instead of tripping the
macro grant audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .barrier import (
    barrier_dissemination,
    barrier_dissemination_mcs,
    barrier_dissemination_twowait,
    barrier_linear,
    barrier_tdlb,
    barrier_tdlb_numa,
    barrier_tournament,
)
from .broadcast import bcast_binomial_flat, bcast_linear_flat, bcast_two_level
from .alltoall import (
    alltoall_linear_flat,
    alltoall_pairwise_flat,
    alltoall_two_level,
)
from .gather import (
    allgather_bruck_flat,
    allgather_linear_flat,
    allgather_two_level,
)
from .rabenseifner import allreduce_rabenseifner
from .reduce import (
    allreduce_binomial_flat,
    allreduce_three_level,
    allreduce_linear_flat,
    allreduce_recursive_doubling,
    allreduce_two_level,
)
from .shmwin import allreduce_shmwin, barrier_shmwin, bcast_shmwin

__all__ = ["AlgorithmInfo", "register", "info", "BARRIERS", "REDUCTIONS",
           "BROADCASTS", "ALLGATHERS", "ALLTOALLS", "MACRO_CAPABLE",
           "macro_kind", "resolve"]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Capability metadata of one registered collective variant."""

    kind: str
    name: str
    fn: Callable
    #: macro window kind this strategy joins with, or None when it always
    #: runs fine-grained (never bets in the macro grant audit)
    macro_kind: Optional[str]


#: name → implementation, per kind — the tables the runtime resolves
#: against and the benchmarks/conformance matrix enumerate.
BARRIERS: Dict[str, Callable] = {}
REDUCTIONS: Dict[str, Callable] = {}
BROADCASTS: Dict[str, Callable] = {}
ALLGATHERS: Dict[str, Callable] = {}
ALLTOALLS: Dict[str, Callable] = {}

_TABLES: Dict[str, Dict[str, Callable]] = {
    "barrier": BARRIERS,
    "reduce": REDUCTIONS,
    "broadcast": BROADCASTS,
    "allgather": ALLGATHERS,
    "alltoall": ALLTOALLS,
}

#: (kind, name) → full capability record
_INFO: Dict[Tuple[str, str], AlgorithmInfo] = {}

#: strategies the macro-event coordinator can collapse, mapped to the
#: window kind they join with (:data:`repro.collectives.macro.REPLAYABLE`).
#: Benchmarks and the extreme-scale sweep consult this to assert that a
#: configured strategy actually macro-izes before betting a 100k-image
#: run on it.  Derived from the ``register`` declarations below.
MACRO_CAPABLE: Dict[Tuple[str, str], str] = {}


def register(kind: str, name: str, fn: Callable, *,
             macro_kind: Optional[str]) -> None:
    """Register collective variant ``name`` under ``kind``.

    ``macro_kind`` is keyword-only and has no default on purpose: every
    variant must state its macro capability explicitly (``None`` means
    "always fine-grained").  Re-registering an existing (kind, name)
    pair is an error — strategies are identities, not overridables.
    """
    try:
        table = _TABLES[kind]
    except KeyError:
        raise ValueError(
            f"unknown collective kind {kind!r}; have {sorted(_TABLES)}"
        ) from None
    if name in table:
        raise ValueError(f"{kind} strategy {name!r} is already registered")
    table[name] = fn
    _INFO[(kind, name)] = AlgorithmInfo(kind, name, fn, macro_kind)
    if macro_kind is not None:
        MACRO_CAPABLE[(kind, name)] = macro_kind


def info(kind: str, name: str) -> AlgorithmInfo:
    """Full capability record of a registered variant."""
    resolve(kind, name)  # uniform unknown-kind/name errors
    return _INFO[(kind, name)]


def macro_kind(kind: str, name: str) -> Optional[str]:
    """The macro window kind strategy ``name`` joins with, or None when
    the strategy always runs fine-grained."""
    return MACRO_CAPABLE.get((kind, name))


def resolve(kind: str, name: str) -> Callable:
    """Look up strategy ``name`` in the ``kind`` registry, with a helpful
    error listing valid names on a miss."""
    try:
        table = _TABLES[kind]
    except KeyError:
        raise ValueError(
            f"unknown collective kind {kind!r}; have {sorted(_TABLES)}"
        ) from None
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"unknown {kind} strategy {name!r}; have {sorted(table)}"
        ) from None


# ----------------------------------------------------------------------
# The built-in families.  Registration order is load-bearing for the
# quick fault matrix (it probes the first name of each kind), so the
# long-standing defaults stay first and new families append at the end.
# ----------------------------------------------------------------------
register("barrier", "dissemination", barrier_dissemination, macro_kind=None)
register("barrier", "dissemination-mcs", barrier_dissemination_mcs,
         macro_kind=None)
register("barrier", "dissemination-twowait", barrier_dissemination_twowait,
         macro_kind=None)
register("barrier", "linear", barrier_linear, macro_kind="linear")
register("barrier", "tournament", barrier_tournament, macro_kind=None)
register("barrier", "tdlb", barrier_tdlb, macro_kind="tdlb")
register("barrier", "tdlb-numa", barrier_tdlb_numa, macro_kind=None)
register("barrier", "shmwin", barrier_shmwin, macro_kind=None)

register("reduce", "linear-flat", allreduce_linear_flat, macro_kind=None)
register("reduce", "binomial-flat", allreduce_binomial_flat, macro_kind=None)
register("reduce", "recursive-doubling", allreduce_recursive_doubling,
         macro_kind="reduce-rd")
register("reduce", "rabenseifner", allreduce_rabenseifner, macro_kind=None)
register("reduce", "two-level", allreduce_two_level, macro_kind="reduce-2l")
register("reduce", "three-level", allreduce_three_level, macro_kind=None)
register("reduce", "shmwin", allreduce_shmwin, macro_kind=None)

register("broadcast", "linear-flat", bcast_linear_flat, macro_kind=None)
register("broadcast", "binomial-flat", bcast_binomial_flat, macro_kind=None)
register("broadcast", "two-level", bcast_two_level, macro_kind="bcast-2l")
register("broadcast", "shmwin", bcast_shmwin, macro_kind=None)

register("allgather", "linear-flat", allgather_linear_flat, macro_kind=None)
register("allgather", "bruck-flat", allgather_bruck_flat, macro_kind=None)
register("allgather", "two-level", allgather_two_level, macro_kind=None)

register("alltoall", "linear-flat", alltoall_linear_flat, macro_kind=None)
register("alltoall", "pairwise-flat", alltoall_pairwise_flat, macro_kind=None)
register("alltoall", "two-level", alltoall_two_level, macro_kind=None)
