"""Deterministic discrete-event simulation kernel.

This subpackage is the substrate everything else stands on: a
reproducible event-heap engine (:mod:`~repro.sim.engine`), wait/wake
primitives (:mod:`~repro.sim.primitives`), and generator-based simulated
processes (:mod:`~repro.sim.process`).  :func:`collector_paused`
keeps CPython's cyclic collector off while a world is built and run
(:mod:`~repro.sim.collector`).
"""

from .collector import collector_paused
from .engine import Engine
from .errors import (
    DeadlockError,
    ProcessFailure,
    SimulationError,
    SimulationLimitExceeded,
)
from .primitives import Cell, Resource, SimEvent
from .process import (
    BlockedInfo,
    Hold,
    Park,
    ProcGen,
    Process,
    Timeout,
    Wait,
    WaitFor,
)

__all__ = [
    "Engine",
    "BlockedInfo",
    "SimEvent",
    "Cell",
    "Resource",
    "Process",
    "ProcGen",
    "Timeout",
    "Wait",
    "WaitFor",
    "Hold",
    "Park",
    "SimulationError",
    "DeadlockError",
    "ProcessFailure",
    "SimulationLimitExceeded",
    "collector_paused",
]
