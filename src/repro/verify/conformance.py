"""Conformance matrix: every registered collective × machine shapes ×
payloads × fuzzed schedules, checked against a sequential reference.

Each **case** picks one algorithm from one registry in
:mod:`repro.collectives.registry`, installs it into a
:class:`~repro.runtime.config.RuntimeConfig`, and runs a small semantic
probe program on a machine shape:

* ``barrier`` — each image puts a round-stamped token into its right
  neighbour's coarray, crosses ``sync_all``, and checks the left
  neighbour's token is visible (the separation property a barrier must
  provide); a second ``sync_all`` closes the anti-dependence before the
  next round.
* ``reduce`` — ``co_reduce`` of an int scalar and a float array, both
  allreduce and rooted forms, against a sequentially combined reference
  (float compare is tolerance-based: combine order varies legally).
* ``broadcast`` / ``allgather`` / ``alltoall`` — payloads derived from
  the image index, compared exactly against the obvious reference.

Every case runs unfuzzed once and under N tie-break seeds
(:func:`~repro.verify.fuzz.fuzz_schedules`) with a
:class:`~repro.verify.vclock.HBMonitor` riding along, so a pass means:
correct result, interleaving-independent, race-free, deadlock-free.

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
from ..machine.spec import MachineSpec, NetworkSpec, NodeSpec, paper_cluster
from ..runtime.config import UHCAF_2LEVEL
from .fuzz import FuzzReport, canonicalize, fuzz_schedules, semantic_equal

__all__ = ["Shape", "SHAPES", "Case", "CaseResult", "build_matrix",
           "run_case", "run_matrix", "KINDS", "PAYLOADS"]

#: float tolerance for reduction results (combine order is schedule-dependent)
FLOAT_RTOL = 1e-9
#: element count of the float-array payload
ARRAY_LEN = 16


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


def _contribution(payload: str, index: int) -> Any:
    """Image ``index``'s deterministic contribution for ``payload``."""
    if payload == "int":
        return index * 3 + 1
    if payload == "farray":
        # Non-uniform floats so combine-order changes are observable
        # (and correctly absorbed by the tolerance compare).
        return (np.arange(ARRAY_LEN, dtype=np.float64) + 1.0) / (index + 0.5)
    raise ValueError(f"unknown payload {payload!r}")


# ----------------------------------------------------------------------
# Probe programs (SPMD mains run by every image)
# ----------------------------------------------------------------------
def _barrier_program(ctx, rounds: int) -> Iterator:
    me = ctx.this_image()
    n = ctx.num_images()
    box = yield from ctx.allocate("verify_bar", (1,), dtype=np.int64)
    mismatches: List[int] = []
    for r in range(1, rounds + 1):
        right = me % n + 1
        if right != me:
            yield from ctx.put(box, right, np.int64(me * 1000 + r), index=0)
        else:
            ctx.local(box)[0] = me * 1000 + r
        yield from ctx.sync_all()
        left = (me - 2) % n + 1
        # 0 when the pre-barrier put is visible post-barrier
        mismatches.append(int(ctx.local(box)[0]) - (left * 1000 + r))
        yield from ctx.sync_all()
    return mismatches


def _reduce_program(ctx, payload: str, op: str) -> Iterator:
    value = _contribution(payload, ctx.this_image())
    full = yield from ctx.co_reduce(value, op=op)
    rooted = yield from ctx.co_reduce(value, op=op, result_image=1)
    return full, rooted


def _broadcast_program(ctx, payload: str, source: int) -> Iterator:
    value = _contribution(payload, ctx.this_image())
    got = yield from ctx.co_broadcast(value, source_image=source)
    return got


def _allgather_program(ctx, payload: str) -> Iterator:
    value = _contribution(payload, ctx.this_image())
    got = yield from ctx.co_allgather(value)
    return got


def _alltoall_program(ctx) -> Iterator:
    me = ctx.this_image()
    n = ctx.num_images()
    payloads = {j: me * 100 + j for j in range(1, n + 1)}
    got = yield from ctx.co_alltoall(payloads)
    return got


def _event_program(ctx, rounds: int) -> Iterator:
    """Ring of posts: every image posts ``rounds`` times to its right
    neighbour, waits for its own ``rounds`` posts in one consuming wait
    (the query after it must read 0), then one more post/wait round after
    a barrier — cross-round isolation of the counts."""
    me = ctx.this_image()
    n = ctx.num_images()
    ev = yield from ctx.event_var("verify_ev")
    right = me % n + 1
    for _ in range(rounds):
        yield from ctx.event_post(ev, right)
    yield from ctx.event_wait(ev, until_count=rounds)
    q1 = ctx.event_query(ev)
    yield from ctx.sync_all()
    yield from ctx.event_post(ev, right)
    yield from ctx.event_wait(ev)
    q2 = ctx.event_query(ev)
    return [q1, q2]


def _lock_counter_rounds(ctx, home: int, enter, leave, rounds: int):
    """Shared body of the lock/critical probes: a lock-protected
    read-modify-write on a counter coarray living on ``home``.  Lost
    updates (broken mutual exclusion) or missing happens-before edges
    (flagged by the riding HBMonitor) fail the case."""
    box = yield from ctx.allocate("verify_ic_ctr", (1,), dtype=np.int64)
    for _ in range(rounds):
        yield from enter()
        cur = yield from ctx.get(box, home)
        yield from ctx.compute(seconds=0.5e-6)  # widen the race window
        yield from ctx.put(box, home, np.int64(int(cur[0]) + 1), index=0)
        yield from leave()
    yield from ctx.sync_all()
    final = yield from ctx.get(box, home)
    return int(final[0])


def _lock_program(ctx, rounds: int) -> Iterator:
    n = ctx.num_images()
    home = min(2, n)
    lk = yield from ctx.lock_var("verify_lk")
    total = yield from _lock_counter_rounds(
        ctx, home,
        lambda: ctx.lock(lk, home),
        lambda: ctx.unlock(lk, home),
        rounds,
    )
    return total


def _critical_program(ctx, rounds: int) -> Iterator:
    total = yield from _lock_counter_rounds(
        ctx, 1,
        lambda: ctx.critical_begin("verify_cr"),
        lambda: ctx.critical_end("verify_cr"),
        rounds,
    )
    return total


def _build_probe(kind: str, payload: str, n: int):
    """(program, args, expected per-image results) for one case."""
    if kind == "barrier":
        rounds = 2
        return _barrier_program, (rounds,), [[0] * rounds] * n
    if kind == "reduce":
        op = "sum" if payload == "farray" else "max"
        ufunc = REDUCE_OPS[op]
        ref = _contribution(payload, 1)
        for i in range(2, n + 1):
            ref = ufunc(ref, _contribution(payload, i))
        expected = [(ref, ref if i == 1 else None) for i in range(1, n + 1)]
        return _reduce_program, (payload, op), expected
    if kind == "broadcast":
        source = min(2, n)
        ref = _contribution(payload, source)
        return _broadcast_program, (payload, source), [ref] * n
    if kind == "allgather":
        ref = [_contribution(payload, i) for i in range(1, n + 1)]
        return _allgather_program, (payload,), [ref] * n
    if kind == "alltoall":
        expected = [{j: j * 100 + i for j in range(1, n + 1)}
                    for i in range(1, n + 1)]
        return _alltoall_program, (), expected
    if kind == "event":
        rounds = 3
        return _event_program, (rounds,), [[0, 0]] * n
    if kind == "lock":
        rounds = 2
        return _lock_program, (rounds,), [rounds * n] * n
    if kind == "critical":
        rounds = 2
        return _critical_program, (rounds,), [rounds * n] * n
    raise ValueError(f"unknown kind {kind!r}")


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Case:
    kind: str
    alg: str
    shape: str
    payload: str

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.alg} @{self.shape} [{self.payload}]"


@dataclass
class CaseResult:
    case: Case
    ok: bool
    seeds: int
    detail: str = ""
    report: Optional[FuzzReport] = None


def build_matrix(
    quick: bool = False,
    kinds: Optional[List[str]] = None,
    algs: Optional[List[str]] = None,
    shapes: Optional[List[str]] = None,
) -> List[Case]:
    """Enumerate the matrix, optionally filtered.  ``quick`` keeps only
    the fast shapes and one payload per kind (the CI smoke set)."""
    cases = []
    for kind, table in KINDS.items():
        if kinds and kind not in kinds:
            continue
        payloads = PAYLOADS[kind]
        if quick:
            payloads = payloads[-1:]
        for alg in table:
            if algs and alg not in algs:
                continue
            for shape in SHAPES.values():
                if quick and not shape.quick:
                    continue
                if shapes and shape.name not in shapes:
                    continue
                for payload in payloads:
                    cases.append(Case(kind, alg, shape.name, payload))
    return cases


def run_case(case: Case, seeds: int = 3) -> CaseResult:
    """Run one case: reference check + schedule fuzz + race/deadlock
    monitoring.  Never raises — failures land in the result."""
    shape = SHAPES[case.shape]
    nseeds = min(seeds, shape.seed_cap) if shape.seed_cap else seeds
    overrides = ({_CONFIG_FIELD[case.kind]: case.alg}
                 if case.kind in _CONFIG_FIELD else {})
    config = UHCAF_2LEVEL.with_(**overrides)
    program, prog_args, expected = _build_probe(
        case.kind, case.payload, shape.num_images
    )
    report = fuzz_schedules(
        program,
        seeds=nseeds,
        num_images=shape.num_images,
        images_per_node=shape.images_per_node,
        spec=shape.spec,
        config=config,
        args=prog_args,
        rtol=FLOAT_RTOL,
        check=False,
    )
    problems = []
    if not report.ok:
        problems.append(report.render())
    if report.baseline.error is None and not semantic_equal(
        report.baseline.results, canonicalize(expected), rtol=FLOAT_RTOL
    ):
        problems.append("baseline results do not match the sequential reference")
    return CaseResult(
        case=case,
        ok=not problems,
        seeds=nseeds,
        detail="\n".join(problems),
        report=report,
    )


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
    cases whose content key — case spec, seed count, and source-tree
    fingerprint — already has a stored result.  ``task_timeout`` bounds
    one pooled attempt of a case in wall-clock seconds; a timed-out case
    gets one untimed inline attempt, and a case that crashes its worker
    comes back as a failed :class:`CaseResult` instead of aborting the
    matrix.  ``stats_out`` receives pool utilization and cache counters.
    """
    from ..exec import TaskSpec, run_tasks

    tasks = [TaskSpec(run_case, (case,), {"seeds": seeds}, label=case.label)
             for case in cases]
    results: List[CaseResult] = []

    def on_result(tres) -> None:
        case = cases[tres.index]
        if tres.ok:
            result = tres.value
        else:
            result = CaseResult(case=case, ok=False, seeds=seeds,
                                detail=f"harness: {tres.error}")
        results.append(result)
        if progress is not None:
            progress(result)

    run_tasks(tasks, jobs=jobs, cache=cache, task_timeout=task_timeout,
              progress=on_result, stats_out=stats_out)
    return results
