"""Parallel run orchestration for the reproduction's harnesses.

The paper's evaluation is a grid of independent simulated runs —
collectives × machine shapes × payloads × schedules.  This package
turns "run the grid" into one deterministic, cache-aware, parallel
primitive:

* :class:`TaskSpec` / :class:`TaskResult` — picklable task descriptors
  with results always delivered in submission order
  (:mod:`repro.exec.task`);
* :func:`run_tasks` — fan-out over a stdlib ``ProcessPoolExecutor``
  with per-task timeout, retry-once on worker crash, and a graceful
  inline fallback (:mod:`repro.exec.pool`);
* :class:`ResultCache` — an on-disk result cache under
  ``.repro-cache/`` keyed by task content + source-tree fingerprint, so
  unchanged grid cells are skipped on re-runs
  (:mod:`repro.exec.cache`).

The verify, bench, perf and calibration harnesses all route their grids
through :func:`run_tasks`; see ``docs/parallel.md`` for the
architecture, the cache key scheme, and the determinism guarantee.

Command line::

    python -m repro.exec            # cores, cache location, entry count
    python -m repro.exec --clear    # drop every cached result
    python -m repro.exec --evict --max-mb 64   # bound the cache size
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, source_fingerprint
from .pool import auto_jobs, resolve_jobs, run_tasks
from .task import (
    TaskResult,
    TaskSpec,
    UnstableFingerprint,
    stable_fingerprint,
    stable_repr,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "source_fingerprint",
    "auto_jobs",
    "resolve_jobs",
    "run_tasks",
    "TaskResult",
    "TaskSpec",
    "UnstableFingerprint",
    "stable_fingerprint",
    "stable_repr",
]
