"""Schedule fuzzing: run one SPMD program under many legal interleavings.

The simulation kernel is deterministic: events at the same instant
fire in insertion order.  That determinism is great
for reproducing experiments and terrible for finding synchronization
bugs — a missing ``sync_all`` can hide behind the one schedule the seed
happens to produce.  :func:`fuzz_schedules` re-runs the program with the
engine's seeded tie-break policy (see :mod:`repro.sim.engine`), which
permutes *only* same-instant events — every permutation is a causally
legal interleaving, and an event scheduled into the instant being
drained still fires after the batch already pending there — and
asserts the **semantic result** is interleaving-independent.

Semantic comparison is structural and tolerance-aware: floating-point
reductions legitimately differ across interleavings because the combine
order changes (float addition is not associative), so float leaves are
compared with a relative tolerance while ints, strings, and payload
structure must match exactly.  Simulated *time* is allowed to vary — the
schedule perturbation can reorder contention — and is reported per seed
instead of asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..runtime.program import run_spmd
from ..sim.errors import DeadlockError
from .deadlock import explain_deadlock
from .fingerprint import leftovers
from .vclock import HBMonitor

__all__ = ["SeedOutcome", "FuzzReport", "FuzzError", "fuzz_schedules",
           "canonicalize", "semantic_equal"]


# ----------------------------------------------------------------------
# Semantic comparison
# ----------------------------------------------------------------------
def canonicalize(value: Any) -> Any:
    """Reduce a result to a structure of tuples/scalars that two runs can
    be compared over: arrays become (shape, dtype kind, values) tuples,
    dict iteration order is fixed by sorted keys."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.kind,
                tuple(value.ravel().tolist()))
    if isinstance(value, dict):
        return ("dict", tuple((k, canonicalize(v))
                              for k, v in sorted(value.items(), key=repr)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonicalize(v) for v in value))
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def semantic_equal(a: Any, b: Any, rtol: float = 1e-9, atol: float = 0.0) -> bool:
    """Structural equality with float tolerance at the leaves."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)
    if isinstance(a, tuple) and isinstance(b, tuple):
        # exact equality, compared in C, is the common case
        return a == b or (
            len(a) == len(b)
            and all(semantic_equal(x, y, rtol, atol) for x, y in zip(a, b)))
    return a == b


# ----------------------------------------------------------------------
# Report types
# ----------------------------------------------------------------------
@dataclass
class SeedOutcome:
    """What happened under one tie-break seed."""

    seed: Optional[int]
    #: canonicalized per-image results (None when the run failed)
    results: Optional[Any]
    time: float = 0.0
    #: True when results semantically match the unfuzzed baseline
    matches: bool = True
    #: deadlock/assertion text when the run failed
    error: Optional[str] = None
    #: WAW race descriptions from the HB monitor, when one was installed
    races: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and self.matches and not self.races


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz_schedules` sweep."""

    baseline: SeedOutcome
    outcomes: List[SeedOutcome]

    @property
    def ok(self) -> bool:
        return self.baseline.ok and all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> List[SeedOutcome]:
        return [o for o in [self.baseline, *self.outcomes] if not o.ok]

    def render(self) -> str:
        total = len(self.outcomes)
        if self.ok:
            times = sorted({self.baseline.time, *(o.time for o in self.outcomes)})
            return (f"fuzz: {total} seed(s) ok, results interleaving-"
                    f"independent; simulated time span "
                    f"[{times[0]:.6g}s, {times[-1]:.6g}s]")
        lines = [f"fuzz: {len(self.failures)}/{total + 1} run(s) FAILED"]
        for o in self.failures:
            tag = "baseline" if o.seed is None else f"seed {o.seed}"
            if o.error is not None:
                lines.append(f"  [{tag}] {o.error}")
            if o.races:
                lines.extend(f"  [{tag}] {r}" for r in o.races)
            if o.error is None and not o.matches:
                lines.append(f"  [{tag}] results diverge from the unfuzzed "
                             f"baseline")
        return "\n".join(lines)


class FuzzError(AssertionError):
    """Raised by :func:`fuzz_schedules` (``check=True``) on any failure."""

    def __init__(self, report: FuzzReport):
        self.report = report
        super().__init__(report.render())


# ----------------------------------------------------------------------
def _default_extract(res: Any) -> Any:
    return res.results


def _fuzz_one_run(
    main: Callable,
    seed: Optional[int],
    run_kwargs: dict,
    monitor_races: bool,
    extract: Optional[Callable[[Any], Any]],
) -> SeedOutcome:
    """One seeded run — module-level so a worker process can import it."""
    monitor = HBMonitor() if monitor_races else None
    try:
        res = run_spmd(main, tiebreak_seed=seed, monitor=monitor,
                       **run_kwargs)
    except DeadlockError as err:
        return SeedOutcome(seed=seed, results=None,
                           error="deadlock\n" + explain_deadlock(err))
    except AssertionError as err:
        return SeedOutcome(seed=seed, results=None,
                           error=f"assertion failed: {err}")
    get = extract if extract is not None else _default_extract
    races = [r.describe() for r in monitor.races] if monitor else []
    left = leftovers(res.world)
    error = f"left behind: {'; '.join(left)}" if left else None
    return SeedOutcome(seed=seed, results=canonicalize(get(res)),
                       time=res.time, races=races, error=error)


def fuzz_schedules(
    main: Callable,
    *,
    seeds: Union[int, Iterable[int]] = 10,
    num_images: int,
    images_per_node: Optional[int] = None,
    spec: Any = None,
    config: Any = None,
    args: Tuple = (),
    extract: Optional[Callable[[Any], Any]] = None,
    rtol: float = 1e-9,
    monitor_races: bool = True,
    check: bool = True,
    jobs=None,
) -> FuzzReport:
    """Run ``main`` under the default schedule and under ``seeds`` fuzzed
    schedules; assert the semantic results agree.

    ``seeds`` is either an iterable of tie-break seeds or a count
    (→ seeds ``1..n``).  ``extract(result)`` maps an
    :class:`~repro.runtime.program.SpmdResult` to the semantic value under
    comparison (default: ``result.results``, the per-image return
    values).  Float leaves compare with relative tolerance ``rtol``.
    With ``monitor_races`` a fresh :class:`HBMonitor` rides along on
    every run and any write-after-write race fails the sweep.  A
    deadlock under *any* seed is a failure and its wait-for analysis is
    embedded in the report; so is a run that leaves state behind
    (:func:`~repro.verify.fingerprint.leftovers`).

    ``jobs`` fans the seeded runs across a worker pool (int, ``"auto"``,
    or None = sequential); outcome order and the report are identical to
    the sequential sweep.  Programs or extractors that cannot be
    pickled (closures) transparently run inline in the parent.

    Returns the :class:`FuzzReport`; raises :class:`FuzzError` on any
    failure unless ``check=False``.
    """
    from ..exec import TaskSpec, run_tasks

    seed_list = list(range(1, seeds + 1)) if isinstance(seeds, int) else list(seeds)
    run_kwargs: dict = {"num_images": num_images, "args": args}
    if images_per_node is not None:
        run_kwargs["images_per_node"] = images_per_node
    if spec is not None:
        run_kwargs["spec"] = spec
    if config is not None:
        run_kwargs["config"] = config

    tasks = [
        TaskSpec(_fuzz_one_run, (main, seed, run_kwargs, monitor_races, extract),
                 label=f"fuzz seed={seed}")
        for seed in [None, *seed_list]
    ]
    raw = run_tasks(tasks, jobs=jobs)
    runs = [
        tres.value if tres.ok
        else SeedOutcome(seed=seed, results=None,
                         error=f"harness: {tres.error}")
        for seed, tres in zip([None, *seed_list], raw)
    ]

    baseline, fuzzed = runs[0], runs[1:]
    outcomes: List[SeedOutcome] = []
    for outcome in fuzzed:
        if (outcome.error is None and baseline.error is None
                and not semantic_equal(outcome.results, baseline.results,
                                       rtol=rtol)):
            outcome.matches = False
        outcomes.append(outcome)

    report = FuzzReport(baseline=baseline, outcomes=outcomes)
    if check and not report.ok:
        raise FuzzError(report)
    return report
