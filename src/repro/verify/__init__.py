"""Schedule-fuzzing and concurrency-verification harness.

The layers, usable independently:

* :mod:`repro.verify.fuzz` — run one SPMD program under many legal
  same-instant event orders (the engine's seeded tie-break policy) and
  assert the semantic result is interleaving-independent.
* :mod:`repro.verify.vclock` — a vector-clock happens-before monitor
  that rides along on any run (``run_spmd(..., monitor=HBMonitor())``)
  and flags unsynchronized write-after-write races; plus
  :mod:`repro.verify.deadlock`, which turns a
  :class:`~repro.sim.errors.DeadlockError` into a wait-for diagnosis
  (missing notifiers, cycles) with team/leader context.
* :mod:`repro.verify.conformance` — a matrix runner sweeping every
  algorithm in :mod:`repro.collectives.registry` and every image-control
  statement across machine shapes, payloads and fault schedules
  (:mod:`repro.faults`): sequential references, graceful degradation,
  run-to-run determinism, and fuzz seeds on the fault-free cells.
* :mod:`repro.verify.fingerprint` — one fingerprint of a run, which
  every execution path must reproduce, and one check of the state a
  clean run leaves behind.

Command line::

    python -m repro.verify --seeds 20            # full matrix
    python -m repro.verify --quick --seeds 3     # CI smoke
    python -m repro.verify --kind barrier --shape numa -v
    python -m repro.verify --quick --schedule leader-fails
"""

from .conformance import (
    SCHEDULES,
    SHAPES,
    Case,
    CaseResult,
    build_matrix,
    make_schedule,
    run_case,
    run_matrix,
)
from .deadlock import DeadlockAnalysis, analyze_deadlock, explain_deadlock
from .fingerprint import RunFingerprint, fingerprint, leftovers
from .fuzz import (
    FuzzError,
    FuzzReport,
    SeedOutcome,
    canonicalize,
    fuzz_schedules,
    semantic_equal,
)
from .vclock import HBMonitor, RaceError, RaceRecord, VectorClock

__all__ = [
    "SCHEDULES",
    "SHAPES",
    "Case",
    "CaseResult",
    "build_matrix",
    "make_schedule",
    "run_case",
    "run_matrix",
    "DeadlockAnalysis",
    "analyze_deadlock",
    "explain_deadlock",
    "RunFingerprint",
    "fingerprint",
    "leftovers",
    "FuzzError",
    "FuzzReport",
    "SeedOutcome",
    "canonicalize",
    "fuzz_schedules",
    "semantic_equal",
    "HBMonitor",
    "RaceError",
    "RaceRecord",
    "VectorClock",
]
