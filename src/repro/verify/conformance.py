"""Conformance matrix: every registered collective and image-control
kind × machine shapes × payloads × fault schedules, checked against a
sequential reference.

Each **case** picks one algorithm from one registry in
:mod:`repro.collectives.registry`, installs it into a
:class:`~repro.runtime.config.RuntimeConfig`, and runs its kind's probe
on a machine shape under a fault schedule (:mod:`repro.faults`).  A
probe runs rounds of its kind with ``stat=`` on every statement that
takes it; each round is round-stamped, so a stale round's data can never
satisfy a later round's check.  What a completed round must hold:

* ``barrier`` — each image puts a token into its right neighbour's
  coarray and crosses ``sync_all``; the left neighbour's token is
  visible (the separation property a barrier must provide).  Rounds
  alternate between two slots, so the next round's put cannot clobber
  a token before it is read.
* ``reduce`` — ``co_reduce`` of an int scalar (``max``, exact) or a
  float array (``sum``, within :data:`FLOAT_RTOL`: combine order varies
  legally), allreduce and rooted forms.
* ``broadcast`` (from ``min(2, n)``), ``allgather``, ``alltoall`` —
  payloads derived from the image index, compared exactly.
* ``event`` — a ring of posts consumed by one ``event_wait``, with
  ``until_count=`` and with the default count on alternate rounds:
  ``event_query`` then reads 0, and a barrier isolates the rounds'
  counts.
* ``lock`` / ``critical`` — back-to-back lock-protected
  read-modify-writes on a counter: after round ``r`` it reads
  ``(r + 1) * n * LOCK_ACQUIRES``.  A lost update (broken mutual
  exclusion) fails the case.

Every case runs its probe on the production path under its schedule.
Each image must end in exactly one of three ways: it fail-stops (killed
by the schedule); it completes every round with reference-correct
results; or its last outcome reports the failure
(``STAT_FAILED_IMAGE``, naming exactly the killed images, with
``failed_images()`` agreeing).  The run must leave no state behind
(:func:`~repro.verify.fingerprint.leftovers`).  A hang fails the case
with a wait-for analysis that attributes it to the injected failure
(:func:`repro.verify.deadlock.explain_deadlock` with ``failed=``).

A case under a fault schedule runs **twice**, and both runs must give
one :func:`~repro.verify.fingerprint.fingerprint`.  A ``none`` case
instead also runs unfuzzed and under N tie-break seeds
(:func:`~repro.verify.fuzz.fuzz_schedules`) with a
:class:`~repro.verify.vclock.HBMonitor` riding along (which keeps
macro-events off), each run checked for leftovers too, and the
unfuzzed run's results against the reference: a pass there also means
interleaving-independent, race-free, deadlock-free.

Schedules:

``none``
    No faults: ``stat=`` on the fault-free path.
``slave-fails``
    Image 2 dies mid-run: on hierarchical shapes a non-leader slave; its
    node leader must notice while waiting for intranode arrival.
``leader-fails``
    Image 1 dies mid-run: the node leader under the default election
    *and* the root of every rooted algorithm.
``message-drop``
    No deaths; 20% seeded drop with bounded retransmits on every
    inter-node message.  Everything completes, just later.

Shapes cover the paper's 11-node × 8-image evaluation platform plus the
degenerate and adversarial cases: a single node, two nodes, an all-leader
flat placement, a 4-socket NUMA node, and non-power-of-two image counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..collectives import registry
from ..collectives.reduce import REDUCE_OPS
from ..faults import (
    FAILED,
    STAT_STOPPED_IMAGE,
    STAT_UNLOCKED_FAILED_IMAGE,
    FailedImageError,
    FaultSchedule,
    ImageFailure,
    Stat,
)
from ..machine.spec import MachineSpec, NetworkSpec, NodeSpec, paper_cluster
from ..runtime.config import UHCAF_2LEVEL
from ..runtime.program import run_spmd
from ..sim.errors import DeadlockError, ProcessFailure
from .deadlock import explain_deadlock
from .fingerprint import fingerprint, leftovers
from .fuzz import FuzzReport, canonicalize, fuzz_schedules, semantic_equal

__all__ = ["Shape", "SHAPES", "Case", "CaseResult", "build_matrix",
           "run_case", "run_matrix", "KINDS", "PAYLOADS", "SCHEDULES",
           "make_schedule"]

#: float tolerance for reduction results (combine order is schedule-dependent)
FLOAT_RTOL = 1e-9
#: element count of the float-array payload
ARRAY_LEN = 16
#: simulated instant of the injected fail-stops — early enough that every
#: shape is still mid-rounds, late enough that the run is well underway
FAIL_TIME = 25e-6
#: rounds each image attempts under a killing schedule (each round costs
#: simulated time, so the cap is never reached: the first round after
#: the failure observes it)
MAX_ROUNDS = 2000
#: rounds under message drops: a later round must not see an earlier,
#: delayed round's data
DROP_ROUNDS = 3
#: fault-free rounds (each runs under every fuzz seed): two where the
#: second round's check needs the first closed (a stale token would
#: show; the event rounds alternate their wait form), one elsewhere
STEADY_ROUNDS = {"barrier": 2, "event": 2}
#: posts each image sends its right neighbour per even event round
EVENT_POSTS = 3
#: lock acquisitions per image per lock/critical round, back to back: a
#: releaser re-requests the lock while others are still queued
LOCK_ACQUIRES = 2


# ----------------------------------------------------------------------
# Machine shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shape:
    """One machine/placement configuration of the matrix."""

    name: str
    num_images: int
    images_per_node: int
    spec: MachineSpec
    #: cap on fuzz seeds (expensive shapes); None = no cap
    seed_cap: Optional[int] = None
    #: include in the --quick matrix (CI smoke / pytest)
    quick: bool = True


_SHAPE_LIST = [
    # one fully populated node: everything intra-node, no leader phase work
    Shape("1node", 8, 8, paper_cluster(1)),
    # the canonical small hierarchy: two nodes, two leaders
    Shape("2x4", 8, 4, paper_cluster(2)),
    # non-power-of-two cases: odd counts break naive log2 trees
    Shape("3img", 3, 2, paper_cluster(2)),
    Shape("7img", 7, 4, paper_cluster(2), quick=False),
    Shape("24img", 24, 8, paper_cluster(3), seed_cap=5, quick=False),
    # one image per node — every image is a leader (flat hierarchy)
    Shape("flat4", 4, 1, paper_cluster(4)),
    # 4-socket NUMA node: exercises the socket tier of tdlb-numa
    Shape("numa", 8, 8,
          MachineSpec(1, NodeSpec(cores=8, sockets=4), NetworkSpec())),
    # the paper's evaluation platform (capped seeds: 88 images is costly)
    Shape("paper11x8", 88, 8, paper_cluster(11), seed_cap=2, quick=False),
]
SHAPES: Dict[str, Shape] = {s.name: s for s in _SHAPE_LIST}

KINDS: Dict[str, dict] = {
    "barrier": registry.BARRIERS,
    "reduce": registry.REDUCTIONS,
    "broadcast": registry.BROADCASTS,
    "allgather": registry.ALLGATHERS,
    "alltoall": registry.ALLTOALLS,
    # Image-control primitives have one runtime implementation each (no
    # registry): the "algorithm" name documents the mechanism under test.
    "event": {"leader-mediated": None},
    "lock": {"cas-wait": None},
    "critical": {"lock-based": None},
}

#: config field each kind's algorithm name plugs into (image-control
#: kinds have no config knob — their single implementation always runs)
_CONFIG_FIELD = {"barrier": "barrier", "reduce": "reduce",
                 "broadcast": "broadcast", "allgather": "allgather",
                 "alltoall": "alltoall"}

#: payload axes per kind (barrier and alltoall have a single natural one)
PAYLOADS: Dict[str, Tuple[str, ...]] = {
    "barrier": ("token",),
    "reduce": ("int", "farray"),
    "broadcast": ("int", "farray"),
    "allgather": ("int", "farray"),
    "alltoall": ("int",),
    "event": ("counts",),
    "lock": ("counter",),
    "critical": ("counter",),
}

#: reduction operator per payload: an exact int op and an inexact float one
_REDUCE_OP = {"int": "max", "farray": "sum"}

SCHEDULES = ("none", "slave-fails", "leader-fails", "message-drop")


def make_schedule(name: str) -> FaultSchedule:
    """The named fault plan of the matrix."""
    if name == "none":
        return FaultSchedule()
    if name == "slave-fails":
        return FaultSchedule(failures=(ImageFailure(image=2, time=FAIL_TIME),))
    if name == "leader-fails":
        return FaultSchedule(failures=(ImageFailure(image=1, time=FAIL_TIME),))
    if name == "message-drop":
        return FaultSchedule(drop_rate=0.2, max_retransmits=3,
                             retransmit_timeout=3e-6, seed=7)
    raise ValueError(f"unknown fault schedule {name!r}; have {SCHEDULES}")


def _contribution(payload: str, index: int, r: int) -> Any:
    """Image ``index``'s round-``r`` contribution for ``payload``."""
    if payload == "int":
        return index * 1000 + r
    if payload == "farray":
        # Non-uniform floats so combine-order changes are observable
        # (and correctly absorbed by the tolerance compare).
        values = np.arange(ARRAY_LEN, dtype=np.float64) + 1.0 + r
        return values / (index + 0.5)
    raise ValueError(f"unknown payload {payload!r}")


def _reference(kind: str, payload: str, me: int, n: int, r: int) -> Any:
    """What image ``me`` must hold after a completed round ``r``."""
    if kind in ("barrier", "event"):
        return 0
    if kind == "reduce":
        ufunc = REDUCE_OPS[_REDUCE_OP[payload]]
        ref = _contribution(payload, 1, r)
        for i in range(2, n + 1):
            ref = ufunc(ref, _contribution(payload, i, r))
        return ref, ref if me == 1 else None
    if kind == "broadcast":
        return _contribution(payload, min(2, n), r)
    if kind == "allgather":
        return [_contribution(payload, i, r) for i in range(1, n + 1)]
    if kind == "alltoall":
        return {j: j * 1000 + me * 10 + r for j in range(1, n + 1)}
    if kind in ("lock", "critical"):
        return (r + 1) * n * LOCK_ACQUIRES
    raise ValueError(f"unknown kind {kind!r}")


# ----------------------------------------------------------------------
# The probe: rounds of one kind, stat= on every statement
# ----------------------------------------------------------------------
# A round generator returns its result, or stops at the first statement
# that sets ``st``; the probe reads ``st`` after each round.
def _barrier_round(ctx, box, payload, r, st) -> Iterator:
    """A token put into the right neighbour's slot ``r % 2`` before the
    barrier is visible after it.  The next round writes the other slot,
    and the one after can only write this slot again once the next
    barrier has seen this round's read."""
    me = ctx.this_image()
    n = ctx.num_images()
    right = me % n + 1
    if right != me:
        yield from ctx.put(box, right, np.int64(me * 1000 + r), index=r % 2)
    else:
        ctx.local(box)[r % 2] = me * 1000 + r
    yield from ctx.sync_all(stat=st)
    if not st.ok:
        return None
    left = (me - 2) % n + 1
    # 0 when the pre-barrier put is visible post-barrier
    return int(ctx.local(box)[r % 2]) - (left * 1000 + r)


def _reduce_round(ctx, _state, payload, r, st) -> Iterator:
    value = _contribution(payload, ctx.this_image(), r)
    op = _REDUCE_OP[payload]
    full = yield from ctx.co_reduce(value, op=op, stat=st)
    if not st.ok:
        return None
    rooted = yield from ctx.co_reduce(value, op=op, result_image=1, stat=st)
    return full, rooted


def _broadcast_round(ctx, _state, payload, r, st) -> Iterator:
    source = min(2, ctx.num_images())
    value = _contribution(payload, ctx.this_image(), r)
    got = yield from ctx.co_broadcast(value, source_image=source, stat=st)
    return got


def _allgather_round(ctx, _state, payload, r, st) -> Iterator:
    value = _contribution(payload, ctx.this_image(), r)
    got = yield from ctx.co_allgather(value, stat=st)
    return got


def _alltoall_round(ctx, _state, payload, r, st) -> Iterator:
    me = ctx.this_image()
    n = ctx.num_images()
    got = yield from ctx.co_alltoall(
        {j: me * 1000 + j * 10 + r for j in range(1, n + 1)}, stat=st)
    return got


def _event_round(ctx, ev, payload, r, st) -> Iterator:
    """A ring of posts consumed in one wait: ``EVENT_POSTS`` of them
    with ``until_count=`` on even rounds, one with the default count on
    odd rounds.  The closing barrier keeps the next round's posts out of
    this round's count."""
    right = ctx.this_image() % ctx.num_images() + 1
    wait = {"until_count": EVENT_POSTS} if r % 2 == 0 else {}
    for _ in range(wait.get("until_count", 1)):
        yield from ctx.event_post(ev, right, stat=st)
        if not st.ok:
            return None
    yield from ctx.event_wait(ev, stat=st, **wait)
    if not st.ok:
        return None
    left = ctx.event_query(ev)
    yield from ctx.sync_all(stat=st)
    return left


def _lock_round(ctx, setup, payload, r, st) -> Iterator:
    """``LOCK_ACQUIRES`` lock-protected increments of a counter, read
    back after a barrier.  Two image-control wrinkles the collectives
    lack:

    * ``STAT_UNLOCKED_FAILED_IMAGE`` means the probe *acquired* the lock
      over a fail-stopped holder — it must release before reporting, or
      blocked contenders would hang on a word nobody frees;
    * ``STAT_STOPPED_IMAGE`` on release is reporting-only: the word must
      still be freed.
    """
    box, home, enter, leave = setup
    # team-wide detection first: images interacting only through an
    # alive lock home would otherwise never observe a death
    yield from ctx.sync_all(stat=st)
    if not st.ok:
        return None
    for _ in range(LOCK_ACQUIRES):
        yield from enter(st)
        if st.code == STAT_UNLOCKED_FAILED_IMAGE:
            yield from leave(None)
        if not st.ok:
            return None
        cur = yield from ctx.get(box, home)
        yield from ctx.compute(seconds=0.5e-6)  # widen the race window
        yield from ctx.put(box, home, np.int64(int(cur[0]) + 1), index=0)
        yield from leave(st)
        if st.code == STAT_STOPPED_IMAGE:
            yield from leave(None)
        if not st.ok:
            return None
    yield from ctx.sync_all(stat=st)
    if not st.ok:
        return None
    total = yield from ctx.get(box, home)
    return int(total[0])


def _setup(ctx, kind: str, st: Stat) -> Iterator:
    """Per-kind state the rounds share, made before round 0."""
    if kind == "event":
        ev = yield from ctx.event_var("verify_ev", stat=st)
        return ev
    if kind not in ("barrier", "lock", "critical"):
        return None
    box = yield from ctx.allocate("verify_box", (2,), dtype=np.int64)
    if kind == "barrier":
        return box
    if kind == "critical":
        return (box, 1,
                lambda s: ctx.critical_begin("verify_cr", stat=s),
                lambda s: ctx.critical_end("verify_cr", stat=s))
    home = min(2, ctx.num_images())
    lk = yield from ctx.lock_var("verify_lk", stat=st)
    return (box, home,
            lambda s: ctx.lock(lk, home, stat=s),
            lambda s: ctx.unlock(lk, home, stat=s))


_ROUNDS = {
    "barrier": _barrier_round, "reduce": _reduce_round,
    "broadcast": _broadcast_round, "allgather": _allgather_round,
    "alltoall": _alltoall_round, "event": _event_round,
    "lock": _lock_round, "critical": _lock_round,
}


def _failure(ctx, st: Stat) -> tuple:
    """The terminal outcome of an image that observed a failure:
    ``("stat", reported indices, failed_images())``.  A
    ``STAT_STOPPED_IMAGE`` is fallout of a failure observed earlier by
    the stopped peer, so it reports ``failed_images()`` itself."""
    failed = tuple(ctx.failed_images())
    if st.code == STAT_STOPPED_IMAGE:
        return ("stat", failed, failed)
    return ("stat", tuple(st.failed_indices), failed)


def _probe(ctx, kind: str, payload: str, rounds: int) -> Iterator:
    """Run ``rounds`` rounds of ``kind``.  Returns the per-round results
    while the team is whole, ending with the :func:`_failure` entry once
    a failure is observed — so every survivor ends with it iff a
    failure happened, and the check can assert that uniformly."""
    st = Stat()
    try:
        setup = yield from _setup(ctx, kind, st)
    except FailedImageError as err:  # ``allocate`` takes no stat=
        return [("stat", tuple(err.failed_indices),
                 tuple(ctx.failed_images()))]
    if not st.ok:
        return [_failure(ctx, st)]
    round_ = _ROUNDS[kind]
    outcomes: List[Any] = []
    for r in range(rounds):
        result = yield from round_(ctx, setup, payload, r, st)
        if not st.ok:
            outcomes.append(_failure(ctx, st))
            return outcomes
        outcomes.append(result)
    return outcomes


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Case:
    kind: str
    alg: str
    shape: str
    payload: str
    schedule: str = "none"

    @property
    def label(self) -> str:
        label = f"{self.kind}/{self.alg} @{self.shape} [{self.payload}]"
        if self.schedule != "none":
            label += f" !{self.schedule}"
        return label


@dataclass
class CaseResult:
    case: Case
    ok: bool
    seeds: int
    detail: str = ""
    report: Optional[FuzzReport] = None


def _smoke_algs(kind: str) -> List[str]:
    """The quick set's algorithms under faults: the first registered and
    the paper's two-level default."""
    names = list(KINDS[kind])
    if kind not in _CONFIG_FIELD:
        return names
    return list(dict.fromkeys(
        [names[0], getattr(UHCAF_2LEVEL, _CONFIG_FIELD[kind])]))


def build_matrix(
    quick: bool = False,
    kinds: Optional[List[str]] = None,
    algs: Optional[List[str]] = None,
    shapes: Optional[List[str]] = None,
    schedules: Optional[List[str]] = None,
) -> List[Case]:
    """Enumerate the matrix, optionally filtered.  The full matrix runs
    every algorithm on every shape under every schedule, with every
    payload under ``none`` and the last payload under faults.  ``quick``
    (the CI smoke set) keeps the fast shapes, the last payload, and
    under faults only :func:`_smoke_algs`."""
    cases = []
    for kind, table in KINDS.items():
        if kinds and kind not in kinds:
            continue
        smoke = _smoke_algs(kind)
        for alg in table:
            if algs and alg not in algs:
                continue
            for shape in SHAPES.values():
                if quick and not shape.quick:
                    continue
                if shapes and shape.name not in shapes:
                    continue
                for schedule in SCHEDULES:
                    if schedules and schedule not in schedules:
                        continue
                    faulty = schedule != "none"
                    if quick and faulty and alg not in smoke:
                        continue
                    payloads = PAYLOADS[kind]
                    if quick or faulty:
                        payloads = payloads[-1:]
                    for payload in payloads:
                        cases.append(
                            Case(kind, alg, shape.name, payload, schedule))
    return cases


def _check_outcomes(case: Case, n: int, rounds: int,
                    schedule: FaultSchedule, results: list) -> List[str]:
    """Per image: fail-stopped, completed every round correctly, or
    reported exactly the killed images — no fourth possibility."""
    problems: List[str] = []
    killed = {f.image for f in schedule.failures}
    expected_failed = tuple(sorted(killed))
    for img, out in enumerate(results, start=1):
        if img in killed:
            if out != FAILED:
                problems.append(f"image{img} was scheduled to fail at "
                                f"{FAIL_TIME:g}s but returned {out!r}")
            continue
        if not isinstance(out, list) or not out:
            problems.append(f"image{img} returned no outcomes: {out!r}")
            continue
        completed = out
        if killed:
            completed = out[:-1]
            if out[-1] != ("stat", expected_failed, expected_failed):
                problems.append(
                    f"image{img} ended with {out[-1]!r}, expected "
                    f"('stat', {expected_failed}, {expected_failed}): "
                    f"the failure reported by stat= and failed_images()")
        elif len(completed) != rounds:
            problems.append(f"image{img} completed {len(completed)} "
                            f"round(s), expected {rounds}")
        for r, got in enumerate(completed):
            want = _reference(case.kind, case.payload, img, n, r)
            if not semantic_equal(canonicalize(got), canonicalize(want),
                                  rtol=FLOAT_RTOL):
                problems.append(f"image{img} round {r}: got {got!r}, "
                                f"expected {want!r} — silent wrong result")
                break
    return problems


def _run_plain(case: Case, schedule: FaultSchedule, rounds: int,
               kwargs: dict) -> List[str]:
    """The probe on the production path under ``schedule``: graceful
    degradation and a clean end state, and under faults determinism
    over a second run.  For a ``none`` case this is the one run where
    macro-events can engage: the fuzz sweep's monitor keeps them off."""
    try:
        first = run_spmd(_probe, faults=schedule, **kwargs)
        second = (None if schedule.is_null
                  else run_spmd(_probe, faults=schedule, **kwargs))
    except DeadlockError as err:
        failed = sorted(f.image for f in schedule.failures)
        return ["hang (graceful degradation failed):\n"
                + explain_deadlock(err, failed=failed)]
    except ProcessFailure as err:
        return [f"image crashed: {err}"]
    problems = _check_outcomes(case, kwargs["num_images"], rounds, schedule,
                               first.results)
    problems += leftovers(first.world)
    if second is not None:
        differ = fingerprint(first).diff(fingerprint(second))
        if differ:
            problems.append(f"non-deterministic: two identical runs differ "
                            f"in {', '.join(differ)}")
    return problems


def run_case(case: Case, seeds: int = 3) -> CaseResult:
    """Run one case (see the module doc); never raises — failures land
    in the result.  ``seeds`` applies to ``none`` cases only."""
    shape = SHAPES[case.shape]
    schedule = make_schedule(case.schedule)
    overrides = ({_CONFIG_FIELD[case.kind]: case.alg}
                 if case.kind in _CONFIG_FIELD else {})
    rounds = (MAX_ROUNDS if schedule.failures
              else DROP_ROUNDS if not schedule.is_null
              else STEADY_ROUNDS.get(case.kind, 1))
    kwargs = dict(num_images=shape.num_images,
                  images_per_node=shape.images_per_node, spec=shape.spec,
                  config=UHCAF_2LEVEL.with_(**overrides),
                  args=(case.kind, case.payload, rounds))
    problems = _run_plain(case, schedule, rounds, kwargs)
    if not schedule.is_null:
        return CaseResult(case=case, ok=not problems, seeds=0,
                          detail="\n".join(problems))
    nseeds = min(seeds, shape.seed_cap) if shape.seed_cap else seeds
    report = fuzz_schedules(_probe, seeds=nseeds, rtol=FLOAT_RTOL,
                            check=False, **kwargs)
    if not report.ok:
        problems.append(report.render())
    n = shape.num_images
    expected = [[_reference(case.kind, case.payload, img, n, r)
                 for r in range(rounds)] for img in range(1, n + 1)]
    if report.baseline.error is None and not semantic_equal(
        report.baseline.results, canonicalize(expected), rtol=FLOAT_RTOL
    ):
        problems.append(
            "baseline results do not match the sequential reference")
    return CaseResult(case=case, ok=not problems, seeds=nseeds,
                      detail="\n".join(problems), report=report)


def run_matrix(
    cases: List[Case],
    seeds: int = 3,
    progress=None,
    jobs=None,
    cache=None,
    task_timeout: Optional[float] = None,
    stats_out: Optional[dict] = None,
) -> List[CaseResult]:
    """Run ``cases``; ``progress(result)`` is called after each one.

    ``jobs`` fans the cases across worker processes via
    :func:`repro.exec.run_tasks` (int, ``"auto"``, or None =
    sequential/``REPRO_JOBS``); results and progress calls keep
    submission order regardless, so parallel output is identical to
    sequential.  ``cache`` (a :class:`repro.exec.ResultCache`) skips
    cases whose content key — case spec, seed count (fault-free cases
    only), and source-tree fingerprint — already has a stored result.
    ``task_timeout`` bounds one pooled attempt of a case in wall-clock
    seconds; a timed-out case gets one untimed inline attempt, and a case
    that crashes its worker comes back as a failed :class:`CaseResult`
    instead of aborting the matrix.  ``stats_out`` receives pool
    utilization and cache counters.
    """
    from ..exec import TaskSpec, run_tasks

    tasks = [TaskSpec(run_case, (case,),
                      {"seeds": seeds} if case.schedule == "none" else {},
                      label=case.label)
             for case in cases]
    results: List[CaseResult] = []

    def on_result(tres) -> None:
        case = cases[tres.index]
        if tres.ok:
            result = tres.value
        else:
            result = CaseResult(case=case, ok=False, seeds=0,
                                detail=f"harness: {tres.error}")
        results.append(result)
        if progress is not None:
            progress(result)

    run_tasks(tasks, jobs=jobs, cache=cache, task_timeout=task_timeout,
              progress=on_result, stats_out=stats_out)
    return results
