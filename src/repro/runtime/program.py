"""SPMD program execution: the world, the per-image context, the launcher.

This module is the public face of the runtime.  A CAF program is a
generator function ``main(ctx)`` executed once per image::

    def main(ctx):
        me = ctx.this_image()
        a = yield from ctx.allocate("a", (100,), dtype=np.float64)
        ctx.local(a)[:] = me
        yield from ctx.sync_all()
        if me == 1:
            row = yield from ctx.get(a, 2)      # one-sided read from image 2
        return me

    result = run_spmd(main, num_images=16, images_per_node=8)

Every operation that moves data or synchronizes is a generator (``yield
from``), because it takes simulated time; pure queries (``this_image``)
are plain calls.  Image indices in the public API are **1-based within
the current team**, exactly as in Coarray Fortran.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..calibration import ConduitProfile
from ..collectives.macro import MacroCollectives
from ..collectives.reduce import REDUCE_OPS
from ..collectives.registry import resolve
from ..faults.manager import (
    STAT_FAILED_IMAGE,
    STAT_OK,
    STAT_STOPPED_IMAGE,
    STAT_UNLOCKED_FAILED_IMAGE,
    FailedImageError,
    FaultManager,
    ImageControlError,
    ImageLiveness,
    LockError,
    Stat,
    StoppedImageError,
)
from ..faults.schedule import FaultSchedule
from ..machine import Machine, MachineSpec, Placement, TrafficSnapshot, build_machine, paper_cluster
from ..sim import Engine, Process, SimEvent, Timeout, Wait
from ..teams.formation import form_team as _form_team
from ..teams.team import INITIAL_TEAM_NUMBER, TeamShared, TeamView
from .atomics import AtomicVar
from .coarray import Coarray
from .conduit import Conduit
from .config import UHCAF_2LEVEL, RuntimeConfig
from .events import EventVar
from .locks import LockVar
from .sync import MEMORY_FENCE_COST, PairwiseSync

__all__ = ["World", "CafContext", "SpmdResult", "RmaHandle", "run_spmd"]

#: request message size of a one-sided get
GET_REQUEST_NBYTES = 16


@dataclass
class RmaHandle:
    """Completion handle of a non-blocking RMA operation.

    ``source_done`` fires when the source buffer is reusable (injection
    finished); ``delivered`` fires when the payload is visible at the
    target (and, for gets, carries the fetched value).  Wait with
    :meth:`CafContext.wait_rma`.
    """

    source_done: SimEvent
    delivered: SimEvent


class World:
    """Everything shared by the images of one SPMD run."""

    def __init__(self, machine: Machine, config: RuntimeConfig,
                 jitter_seed: int = 0, trace: bool = False,
                 fault_schedule: Optional[FaultSchedule] = None):
        self.engine = machine.engine
        self.machine = machine
        self.config = config
        #: fault-injection manager, or None for the default (fault-free)
        #: path; a null schedule installs no manager so the run stays
        #: byte-identical to one with no schedule at all
        self.faults: Optional[FaultManager] = (
            FaultManager(self.engine, fault_schedule, machine.num_images)
            if fault_schedule is not None and not fault_schedule.is_null
            else None
        )
        self.conduit = Conduit(
            machine, config.conduit_profile,
            hierarchy_aware=config.hierarchy_aware, faults=self.faults,
        )
        #: macro-event coordinator — collapses provably-unobservable
        #: barrier windows into analytic wake events (see
        #: :mod:`repro.collectives.macro`); it self-disables whenever a
        #: monitor/trace/tiebreak/fault observer is attached, so it is
        #: always constructed
        self.macro = MacroCollectives(self)
        self.conduit.macro = self.macro
        self.initial_shared = TeamShared(
            engine=self.engine,
            topology=machine.topology,
            members=list(range(machine.num_images)),
            team_number=INITIAL_TEAM_NUMBER,
            parent=None,
            leader_strategy=config.leader_strategy,
        )
        #: normal-termination tracker — the third image state of F2018
        #: (stopped, vs. running and failed); always present, because any
        #: image may return from its program while teammates synchronize
        self.liveness = ImageLiveness(machine.num_images)
        self.pairwise = PairwiseSync(self.engine)
        self.coarrays: Dict[str, Coarray] = {}
        self.atomic_vars: Dict[str, AtomicVar] = {}
        self.event_vars: Dict[str, EventVar] = {}
        self.lock_vars: Dict[str, LockVar] = {}
        #: survivor-team re-formations, keyed by (parent uid, member tuple,
        #: team number): the first surviving arriver builds the TeamShared,
        #: the rest attach — deterministic because every survivor computes
        #: the same member list from the same failed set
        self._survivor_shared: Dict[tuple, TeamShared] = {}
        #: chronological (time, image, op, detail) records when tracing
        self.trace: Optional[List[Tuple[float, int, str, str]]] = (
            [] if trace else None
        )
        self._jitter_seed = jitter_seed
        self._jitter_rngs: Dict[int, Any] = {}
        #: flop count → its jitter-free compute command, shared by every
        #: image (see :meth:`CafContext.compute_cost`)
        self.compute_costs: Dict[float, Timeout] = {}

    @property
    def num_images(self) -> int:
        return self.machine.num_images

    def jitter_factor(self, proc: int) -> float:
        """Next OS-noise multiplier for image ``proc`` — uniform in
        [1, 1+jitter], from a per-image seeded stream (reproducible)."""
        jitter = self.config.compute_jitter
        if jitter <= 0.0:
            return 1.0
        rng = self._jitter_rngs.get(proc)
        if rng is None:
            rng = np.random.default_rng((self._jitter_seed, proc))
            self._jitter_rngs[proc] = rng
        return 1.0 + jitter * float(rng.random())


class CafContext:
    """One image's handle on the runtime — the lowered form of CAF's
    intrinsics and statements (the paper's §III subroutine interface)."""

    def __init__(self, world: World, proc: int):
        self.world = world
        self.proc = proc
        self._stack: List[TeamView] = [TeamView(world.initial_shared, proc, None)]
        self._sync_seen: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Plumbing shared with the collectives (duck-typed ctx protocol)
    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self.world.engine

    @property
    def machine(self) -> Machine:
        return self.world.machine

    @property
    def conduit(self) -> Conduit:
        return self.world.conduit

    @property
    def config(self) -> RuntimeConfig:
        return self.world.config

    @property
    def now(self) -> float:
        """Current simulated time (the microbenchmarks' stopwatch)."""
        return self.world.engine.now

    @property
    def faults(self) -> Optional[FaultManager]:
        """The run's fault manager, or None when no faults are injected.
        The collectives' failure-aware waits read this (duck-typed)."""
        return self.world.faults

    @property
    def macro(self) -> MacroCollectives:
        """The run's macro-event coordinator (duck-typed: barrier
        wrappers probe ``getattr(ctx, "macro", None)``, so test contexts
        without one simply stay fine-grained)."""
        return self.world.macro

    def compute_cost(self, flops: float) -> Timeout:
        """A yieldable command charging ``flops`` of local work at this
        image's backend-dependent compute rate (plus configured OS-noise
        jitter, if any).  Without jitter the command depends on
        ``flops`` alone, so the world keeps one per Python-number flop
        count (a NumPy scalar would change the delay's type)."""
        world = self.world
        if world.config.compute_jitter <= 0.0:
            cls = flops.__class__
            if cls is float or cls is int:
                cmd = world.compute_costs.get(flops)
                if cmd is None:
                    cmd = world.compute_costs[flops] = self.machine.compute(
                        flops, efficiency=world.config.compute_efficiency)
                return cmd
        cmd = self.machine.compute(flops, efficiency=self.config.compute_efficiency)
        factor = world.jitter_factor(self.proc)
        if factor != 1.0:
            return Timeout(cmd.delay * factor)
        return cmd

    def _log(self, op: str, detail: str = "") -> None:
        """Append a trace record.  Callers test ``world.trace`` first, so
        an untraced run neither calls this nor formats ``detail``."""
        self.world.trace.append(
            (self.world.engine.now, self.proc + 1, op, detail)
        )

    # ------------------------------------------------------------------
    # Team queries (pure)
    # ------------------------------------------------------------------
    @property
    def current_team(self) -> TeamView:
        return self._stack[-1]

    @property
    def initial_team(self) -> TeamView:
        return self._stack[0]

    def this_image(self, team: Optional[TeamView] = None) -> int:
        """1-based image index in ``team`` (default: the current team)."""
        view = team if team is not None else self.current_team
        return view.shared.index_of(self.proc)

    def num_images(self, team: Optional[TeamView] = None) -> int:
        view = team if team is not None else self.current_team
        return view.size

    def team_id(self) -> int:
        """The current team's number (−1 for the initial team, as in OpenUH)."""
        return self.current_team.team_number

    def get_team(self, level: str = "current") -> TeamView:
        """``get_team`` intrinsic: the current, parent, or initial team."""
        if level == "current":
            return self.current_team
        if level == "initial":
            return self.initial_team
        if level == "parent":
            parent = self.current_team.parent_view
            # The initial team is its own parent, per the standard.
            return parent if parent is not None else self.initial_team
        raise ValueError(f"unknown team level {level!r}; use current|parent|initial")

    def image_index(self, team: TeamView, initial_index: int) -> int:
        """Index within ``team`` of the image whose *initial-team* index is
        ``initial_index``; 0 if it is not a member (CAF convention)."""
        proc = self.initial_team.shared.proc_of(initial_index)
        try:
            return team.shared.index_of(proc)
        except ValueError:
            return 0

    def global_image(self, index: Optional[int] = None,
                     team: Optional[TeamView] = None) -> int:
        """Initial-team index of team member ``index`` (default: me)."""
        view = team if team is not None else self.current_team
        proc = view.shared.proc_of(index) if index is not None else self.proc
        return self.initial_team.shared.index_of(proc)

    def _proc_of(self, image: int, team: Optional[TeamView] = None) -> int:
        view = team if team is not None else self.current_team
        return view.shared.proc_of(image)

    # ------------------------------------------------------------------
    # Coarray allocation and access
    # ------------------------------------------------------------------
    def allocate(self, name: str, shape: Tuple[int, ...], dtype: Any = np.float64,
                 fill: float = 0.0):
        """Collectively allocate (or attach to) a coarray; implies SYNC ALL.

        Must be executed by every image of the current team, like a
        Fortran ``allocate`` of a coarray.  Re-allocation with a different
        shape or dtype is an error.
        """
        registry = self.world.coarrays
        key = f"t{self.current_team.shared.uid}:{name}"
        existing = registry.get(key)
        if existing is None:
            registry[key] = Coarray(
                name, tuple(shape), dtype, self.world.num_images, fill=fill
            )
        else:
            if existing.shape != tuple(shape) or existing.dtype != np.dtype(dtype):
                raise ValueError(
                    f"coarray {name!r} re-allocated with mismatched "
                    f"shape/dtype: {existing.shape}/{existing.dtype} vs "
                    f"{tuple(shape)}/{np.dtype(dtype)}"
                )
        yield from self.sync_all()
        return registry[key]

    def local(self, coarray: Coarray) -> np.ndarray:
        """My local allocation of ``coarray`` (live view, zero cost)."""
        return coarray.local(self.proc)

    def put(self, coarray: Coarray, image: int, value: Any,
            index: Any = None, team: Optional[TeamView] = None):
        """``A(index)[image] = value``: one-sided write to ``image``'s copy.

        Blocks through source-side completion (the source buffer is
        reusable on return); the data lands at the target at delivery
        time, which a subsequent synchronization makes observable —
        exactly the CAF memory model.
        """
        dst = self._proc_of(image, team)
        nbytes = coarray.nbytes_of(index)
        if self.world.trace is not None:
            self._log("put", f"{coarray.name}->img{image} {nbytes}B")
        frozen = np.array(value, copy=True) if isinstance(value, np.ndarray) else value
        yield from self.conduit.transfer(
            self.proc, dst, nbytes,
            on_delivered=lambda: coarray.write(dst, frozen, index),
            path="auto",
        )

    def put_nb(self, coarray: Coarray, image: int, value: Any,
               index: Any = None, team: Optional[TeamView] = None):
        """Non-blocking put: blocks only through posting the operation;
        returns an :class:`RmaHandle` (via ``yield from``).  The data
        lands at the target when ``handle.delivered`` fires; wait with
        :meth:`wait_rma` or rely on a subsequent synchronization."""
        dst = self._proc_of(image, team)
        nbytes = coarray.nbytes_of(index)
        if self.world.trace is not None:
            self._log("put_nb", f"{coarray.name}->img{image} {nbytes}B")
        frozen = np.array(value, copy=True) if isinstance(value, np.ndarray) else value
        delivered = SimEvent(self.engine, name="put_nb.delivered")

        def deliver() -> None:
            coarray.write(dst, frozen, index)
            delivered.trigger()

        source_done = yield from self.conduit.transfer_nb(
            self.proc, dst, nbytes, on_delivered=deliver, path="auto"
        )
        return RmaHandle(source_done=source_done, delivered=delivered)

    def get_nb(self, coarray: Coarray, image: int, index: Any = None,
               team: Optional[TeamView] = None):
        """Non-blocking get: posts the read and returns an
        :class:`RmaHandle`; ``wait_rma`` returns the fetched value
        (snapshotted at the moment the response leaves the target)."""
        src = self._proc_of(image, team)
        nbytes = coarray.nbytes_of(index)
        if self.world.trace is not None:
            self._log("get_nb", f"{coarray.name}<-img{image} {nbytes}B")
        delivered = SimEvent(self.engine, name="get_nb.delivered")
        if src == self.proc:
            delivered.trigger(coarray.read(src, index))
            done = SimEvent(self.engine)
            done.trigger()
            return RmaHandle(source_done=done, delivered=delivered)
        machine = self.machine

        def respond() -> None:
            # RDMA-style response: target NIC streams the data back with
            # no target CPU involvement.
            value = coarray.read(src, index)
            machine.transfer_async(
                src, self.proc, nbytes,
                on_delivered=lambda: delivered.trigger(value),
            )

        source_done = yield from self.conduit.transfer_nb(
            self.proc, src, GET_REQUEST_NBYTES, on_delivered=respond,
            path="auto",
        )
        return RmaHandle(source_done=source_done, delivered=delivered)

    def wait_rma(self, handle: RmaHandle):
        """Block until a non-blocking operation's payload is delivered;
        returns the fetched value for gets (None for puts)."""
        value = yield Wait(handle.delivered)
        return value

    def get(self, coarray: Coarray, image: int, index: Any = None,
            team: Optional[TeamView] = None):
        """``value = A(index)[image]``: one-sided read; returns the data."""
        src = self._proc_of(image, team)
        if src == self.proc:
            return coarray.read(src, index)
        nbytes = coarray.nbytes_of(index)
        done = SimEvent(self.engine, name="get.done")
        # Request reaches the target's memory system...
        yield from self.conduit.transfer(
            self.proc, src, GET_REQUEST_NBYTES, on_delivered=None, path="auto"
        )
        # ...then the payload streams back (read at delivery time, so a
        # racing writer's last committed value is what we see).
        yield from self.conduit.transfer(
            src, self.proc, nbytes,
            on_delivered=lambda: done.trigger(coarray.read(src, index)),
            path="auto",
        )
        value = yield Wait(done)
        return value

    # ------------------------------------------------------------------
    # stat= semantics (Fortran 2018 failed-image handling)
    # ------------------------------------------------------------------
    # The statement wrappers below return the algorithm's generator
    # itself when there is no fault manager and no ``stat=``: a guard
    # generator would only pass every resume through, and a collective
    # resumes thousands of times.  Callers ``yield from`` the result
    # either way.
    def _catch_stat(self, stat: Optional[Stat], gen):
        """Run a synchronization/collective generator under ``stat=``
        semantics: an :class:`ImageControlError` (failed image, stopped
        image, lock condition) either lands in ``stat`` or propagates
        (error termination) when no ``stat`` was supplied — exactly the
        standard's dichotomy.  Returns ``gen`` unwrapped when there is
        nothing to catch."""
        if self.world.faults is None and stat is None:
            return gen
        return self._catching(stat, gen)

    def _catching(self, stat: Optional[Stat], gen):
        try:
            result = yield from gen
        except ImageControlError as err:
            gen.close()
            if stat is None:
                raise
            stat._set(err)
            return None
        if stat is not None:
            stat._clear()
        return result

    def _stat_guard(self, stat: Optional[Stat], view: TeamView, gen,
                    check_stopped: bool = False):
        """:meth:`_catch_stat` plus the *entry checks* (see
        :meth:`_guarding`); returns ``gen`` unwrapped when there is nothing
        to check or catch."""
        if self.world.faults is None and stat is None:
            return gen
        return self._guarding(stat, view, gen, check_stopped)

    def _guarding(self, stat: Optional[Stat], view: TeamView, gen,
                  check_stopped: bool):
        """Entry checks, then :meth:`_catching`: a team operation
        started after a member failed observes the failure immediately,
        even on images whose role in the algorithm never blocks (e.g. a
        broadcast source) — this is what makes failure detection a
        guarantee of the next synchronization, not of the next wait.

        Stopped-image detection (``check_stopped``) is entry-check-only,
        applies only to ``stat=``-bearing statements, and only to
        *synchronization* statements: a teammate's normal termination
        never wakes an in-flight wait (it bumps no epoch), a stat-less
        statement keeps the historical behavior (it may deadlock, and
        the deadlock analysis attributes it), and one-way collectives
        stay permissive — a broadcast source legitimately finishes its
        rounds and stops while receivers still drain their mailboxes.
        The failed check always precedes the stopped check —
        ``STAT_FAILED_IMAGE`` wins when a team has both.
        """
        shared = getattr(view, "shared", view)
        try:
            if self.world.faults is not None:
                self.world.faults.check_team(shared)
            if check_stopped and stat is not None:
                self.world.liveness.check_team(shared)
        except ImageControlError as err:
            gen.close()
            if stat is None:
                raise
            stat._set(err)
            return None
        result = yield from self._catching(stat, gen)
        return result

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def sync_all(self, stat: Optional[Stat] = None):
        """``sync all``: barrier over the current team, using the
        configured strategy.  ``stat`` receives ``STAT_FAILED_IMAGE``
        instead of raising when a team member has failed."""
        team = self.current_team
        if self.world.trace is not None:
            self._log("sync_all", f"team{team.shared.uid}")
        return self.sync_team(team, stat=stat)

    def sync_team(self, team: TeamView, stat: Optional[Stat] = None):
        """``sync team(T)``: barrier over team ``T`` (must be the current
        team or an ancestor/descendant this image belongs to)."""
        barrier = resolve("barrier", self.config.barrier)
        return self._stat_guard(stat, team, barrier(self, team),
                                check_stopped=True)

    def sync_images(self, images: Union[str, Sequence[int]],
                    stat: Optional[Stat] = None):
        """``sync images(L)``: pairwise rendezvous with each image in
        ``L`` (current-team indices), or with everyone for ``'*'``.
        With ``stat``, a failed partner reports ``STAT_FAILED_IMAGE``
        (naming global image indices) instead of raising."""
        view = self.current_team
        if isinstance(images, str):
            if images != "*":
                raise ValueError(f"sync images: expected indices or '*', got {images!r}")
            peers = [view.shared.proc_of(i) for i in range(1, view.size + 1)]
        else:
            peers = [view.shared.proc_of(i) for i in images]
        gen = self.world.pairwise.sync_images(
            self.conduit, self.proc, peers, self._sync_seen,
            faults=self.world.faults,
        )
        if stat is not None:
            # Entry checks scoped to the named peers: failed first (the
            # standard's priority), then normally-stopped.
            try:
                if self.world.faults is not None:
                    self.world.faults.check_images(peers)
                self.world.liveness.check_images(
                    p for p in peers if p != self.proc
                )
            except ImageControlError as err:
                gen.close()
                stat._set(err)
                return None
        yield from self._catch_stat(stat, gen)

    def sync_memory(self):
        """``sync memory``: local fence."""
        yield Timeout(MEMORY_FENCE_COST)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def co_reduce(self, value: Any, op: str = "sum",
                  result_image: Optional[int] = None,
                  team: Optional[TeamView] = None,
                  stat: Optional[Stat] = None):
        """Team reduction with the configured strategy; returns the result
        (on every image, or only on ``result_image`` if given).

        ``team`` selects a team other than the current one — the CAF 2.0
        style team-qualified collective the HPC Challenge/HPL ports use
        to avoid a ``change team`` round-trip per call.  ``stat``
        receives ``STAT_FAILED_IMAGE`` instead of raising when a team
        member has failed.

        ``op`` is a named reduction or a user-supplied binary callable
        (F2018 ``co_reduce`` with a user ``operation``); unknown names
        are rejected here, before any image communicates.
        """
        if not callable(op) and op not in REDUCE_OPS and op != "maxloc":
            raise ValueError(
                f"unknown reduce op {op!r} (not callable either); "
                f"have {sorted(REDUCE_OPS) + ['maxloc']}"
            )
        fn = resolve("reduce", self.config.reduce)
        view = team if team is not None else self.current_team
        return self._stat_guard(
            stat, view, fn(self, view, value, op, result_image=result_image)
        )

    def co_sum(self, value: Any, result_image: Optional[int] = None,
               team: Optional[TeamView] = None, stat: Optional[Stat] = None):
        return self.co_reduce(value, "sum", result_image, team, stat=stat)

    def co_max(self, value: Any, result_image: Optional[int] = None,
               team: Optional[TeamView] = None, stat: Optional[Stat] = None):
        return self.co_reduce(value, "max", result_image, team, stat=stat)

    def co_min(self, value: Any, result_image: Optional[int] = None,
               team: Optional[TeamView] = None, stat: Optional[Stat] = None):
        return self.co_reduce(value, "min", result_image, team, stat=stat)

    def co_broadcast(self, value: Any, source_image: int,
                     team: Optional[TeamView] = None,
                     stat: Optional[Stat] = None):
        """Team broadcast from ``source_image``; returns the payload
        everywhere.  ``team`` and ``stat`` work as in :meth:`co_reduce`."""
        fn = resolve("broadcast", self.config.broadcast)
        view = team if team is not None else self.current_team
        return self._stat_guard(stat, view, fn(self, view, value, source_image))

    def co_alltoall(self, payloads, team: Optional[TeamView] = None,
                    stat: Optional[Stat] = None):
        """Personalized all-to-all: ``payloads`` maps every team index
        (dict, or a list in index order) to that member's datum; returns
        the dict of received data keyed by sender.  (Extension — the
        methodology's stress test; see collectives.alltoall.)"""
        fn = resolve("alltoall", self.config.alltoall)
        view = team if team is not None else self.current_team
        return self._stat_guard(stat, view, fn(self, view, payloads))

    def co_allgather(self, value: Any, team: Optional[TeamView] = None,
                     stat: Optional[Stat] = None):
        """Gather every member's contribution; returns the list ordered
        by team index, on every image.  (Extension beyond the paper's
        three collectives — the natural fourth member of the family,
        with the same flat/two-level strategy split.)"""
        fn = resolve("allgather", self.config.allgather)
        view = team if team is not None else self.current_team
        return self._stat_guard(stat, view, fn(self, view, value))

    # ------------------------------------------------------------------
    # Teams
    # ------------------------------------------------------------------
    def form_team(self, team_number: int, new_index: Optional[int] = None):
        """``form team(team_number, T [, new_index=...])``; returns the new
        team's view (inert until ``change_team``)."""
        view = yield from _form_team(self, self.current_team, team_number, new_index)
        return view

    def change_team(self, team: TeamView):
        """``change team(T)``: make ``T`` current; implicit sync of ``T``."""
        if team.proc != self.proc:
            raise ValueError("change_team: view belongs to another image")
        if team.parent_view is not self.current_team:
            raise ValueError(
                "change_team: team was not formed from the current team"
            )
        self._stack.append(team)
        yield from self.sync_team(team)

    def end_team(self):
        """``end team``: implicit sync of the current team, then pop."""
        if len(self._stack) == 1:
            raise RuntimeError("end_team without matching change_team")
        yield from self.sync_team(self.current_team)
        self._stack.pop()

    # ------------------------------------------------------------------
    # Failed images (Fortran 2018 fail-stop intrinsics)
    # ------------------------------------------------------------------
    def image_status(self, image: int, team: Optional[TeamView] = None) -> int:
        """``image_status(image)``: :data:`~repro.faults.STAT_OK`,
        :data:`~repro.faults.STAT_FAILED_IMAGE`, or
        :data:`~repro.faults.STAT_STOPPED_IMAGE` for one member of the
        current (or given) team.  Pure query, zero cost."""
        proc = self._proc_of(image, team)
        faults = self.world.faults
        if faults is not None and faults.is_failed(proc):
            return STAT_FAILED_IMAGE
        if self.world.liveness.is_stopped(proc):
            return STAT_STOPPED_IMAGE
        return STAT_OK

    def failed_images(self, team: Optional[TeamView] = None) -> List[int]:
        """``failed_images()``: sorted team indices of the members known
        to have failed (empty without fault injection)."""
        faults = self.world.faults
        if faults is None:
            return []
        view = team if team is not None else self.current_team
        return faults.failed_team_indices(view.shared)

    def stopped_images(self, team: Optional[TeamView] = None) -> List[int]:
        """``stopped_images()``: sorted team indices of the members that
        have initiated *normal* termination — disjoint from
        :meth:`failed_images` (fail-stop and stop are distinct states)."""
        view = team if team is not None else self.current_team
        return self.world.liveness.stopped_team_indices(view.shared)

    def survivor_team(self, team_number: Optional[int] = None):
        """Re-form the current team without its failed members; returns a
        new :class:`TeamView` (use with ``change_team`` as usual).

        Every survivor computes the same member list locally from the
        fault manager's failed set — no message exchange can depend on a
        dead root — and :class:`~repro.teams.hierarchy.HierarchyInfo` is
        rebuilt over the survivors, which re-elects a node leader
        wherever the old leader died.  Implies a sync of the new team
        (which raises/reports on any *further* failure).
        """
        view = self.current_team
        shared = view.shared
        faults = self.world.faults
        failed = faults.failed_procs if faults is not None else frozenset()
        members = [p for p in shared.members if p not in failed]
        if self.proc not in members:
            raise RuntimeError("survivor_team called from a failed image")
        number = team_number if team_number is not None else shared.team_number
        key = (shared.uid, tuple(members), number)
        registry = self.world._survivor_shared
        new_shared = registry.get(key)
        if new_shared is None:
            new_shared = TeamShared(
                engine=self.engine,
                topology=self.machine.topology,
                members=members,
                team_number=number,
                parent=shared,
                leader_strategy=self.config.leader_strategy,
                formation_seq=shared.formation_counter,
            )
            registry[key] = new_shared
        new_view = TeamView(new_shared, self.proc, parent_view=view)
        if self.world.trace is not None:
            self._log("survivor_team",
                      f"team{shared.uid}->team{new_shared.uid} "
                      f"({len(members)}/{shared.size} survive)")
        yield from self.sync_team(new_view)
        return new_view

    # ------------------------------------------------------------------
    # Atomics & events
    # ------------------------------------------------------------------
    def atomic_var(self, name: str, initial: int = 0):
        """Collectively create/attach an atomic integer coarray; implies
        SYNC ALL so no image races the creation."""
        registry = self.world.atomic_vars
        if name not in registry:
            registry[name] = AtomicVar(self.conduit, name, initial=initial)
        yield from self.sync_all()
        return registry[name]

    def atomic_add(self, var: AtomicVar, image: int, value: int):
        yield from var.update(self.proc, self._proc_of(image), "add", value)

    def atomic_op(self, var: AtomicVar, image: int, op: str, value: int):
        yield from var.update(self.proc, self._proc_of(image), op, value)

    def atomic_define(self, var: AtomicVar, image: int, value: int):
        yield from var.define(self.proc, self._proc_of(image), value)

    def atomic_ref(self, var: AtomicVar) -> int:
        """Local read of my own atomic (plain load)."""
        return var.value(self.proc)

    def atomic_fetch_add(self, var: AtomicVar, image: int, value: int):
        old = yield from var.fetch_update(self.proc, self._proc_of(image), "add", value)
        return old

    def atomic_cas(self, var: AtomicVar, image: int, expected: int, desired: int):
        old = yield from var.compare_and_swap(
            self.proc, self._proc_of(image), expected, desired
        )
        return old

    def event_var(self, name: str, stat: Optional[Stat] = None):
        """Collectively create/attach a team-scoped event coarray;
        implies SYNC ALL (``stat`` guards that barrier)."""
        registry = self.world.event_vars
        shared = self.current_team.shared
        key = f"t{shared.uid}:{name}"
        if key not in registry:
            registry[key] = EventVar(self.conduit, name, shared=shared)
        yield from self.sync_all(stat=stat)
        return registry[key]

    def event_post(self, var: EventVar, image: int,
                   stat: Optional[Stat] = None):
        """``event post(ev[image])``: bump the owner's count.  On a
        hierarchy-aware runtime a cross-node post is leader-mediated
        (see :class:`~repro.runtime.events.EventVar`).  ``image`` is an
        index in the variable's own team.  A failed owner raises/reports
        ``STAT_FAILED_IMAGE``; a normally-stopped owner reports
        ``STAT_STOPPED_IMAGE`` when ``stat`` is supplied (and is
        silently tolerated otherwise — the count lands, nobody reads it)."""
        dst = (var.shared.proc_of(image) if var.shared is not None
               else self._proc_of(image))
        if self.world.trace is not None:
            self._log("event_post", f"{var.name}[{image}]")

        def guarded():
            faults = self.world.faults
            if faults is not None and faults.is_failed(dst):
                raise FailedImageError([dst + 1])
            if stat is not None and self.world.liveness.is_stopped(dst):
                raise StoppedImageError([dst + 1])
            yield from var.post(self.proc, dst, faults=faults)

        yield from self._catch_stat(stat, guarded())

    def event_wait(self, var: EventVar, until_count: int = 1,
                   stat: Optional[Stat] = None):
        """``event wait(ev, until_count=c)`` on my own count; consumes
        the posts.  Failure-aware on team-scoped variables: a teammate's
        fail-stop lands in ``stat``/raises instead of starving the wait."""
        if self.world.trace is not None:
            self._log("event_wait", f"{var.name} until={until_count}")
        yield from self._catch_stat(
            stat, var.wait(self.proc, until_count, faults=self.world.faults)
        )

    def event_query(self, var: EventVar) -> int:
        return var.pending(self.proc)

    # ------------------------------------------------------------------
    # Locks (F2008/F2018 lock_type)
    # ------------------------------------------------------------------
    def lock_var(self, name: str, stat: Optional[Stat] = None):
        """Collectively create/attach a team-scoped lock coarray;
        implies SYNC ALL (``stat`` guards that barrier)."""
        registry = self.world.lock_vars
        shared = self.current_team.shared
        key = f"t{shared.uid}:{name}"
        if key not in registry:
            registry[key] = LockVar(self.conduit, name, shared=shared)
        yield from self.sync_all(stat=stat)
        return registry[key]

    def lock(self, var: LockVar, image: int, team: Optional[TeamView] = None,
             blocking: bool = True, stat: Optional[Stat] = None):
        """``lock(l[image])``: acquire; returns True when acquired.

        ``blocking=False`` is the ``ACQUIRED_LOCK=`` form: a contended
        acquire returns False immediately (``stat`` receives
        ``STAT_LOCKED`` when supplied).  Acquiring over a fail-stopped
        holder succeeds with ``STAT_UNLOCKED_FAILED_IMAGE`` — an error
        termination without ``stat``, since the protected state may be
        torn.  ``image`` resolves in the variable's own team when it has
        one, else in ``team``/the current team."""
        home = (var.shared.proc_of(image) if var.shared is not None
                else self._proc_of(image, team))
        if self.world.trace is not None:
            self._log("lock", f"{var.name}[{image}]")
        if stat is not None:
            stat._clear()
        try:
            faults = self.world.faults
            if faults is not None:
                faults.check_images([home])
            if stat is not None and home != self.proc:
                self.world.liveness.check_images([home])
            acquired, code, failed = yield from var.acquire(
                self.proc, home, blocking=blocking, faults=faults
            )
        except ImageControlError as err:
            if stat is None:
                raise
            stat._set(err)
            return False
        if code != STAT_OK:
            if stat is not None:
                stat.code = code
                stat.failed_indices = tuple(failed)
            elif code == STAT_UNLOCKED_FAILED_IMAGE:
                raise LockError(
                    f"lock {var.name!r} acquired after its holder "
                    f"image{failed[0]} failed (STAT_UNLOCKED_FAILED_IMAGE)",
                    code=STAT_UNLOCKED_FAILED_IMAGE,
                    failed_indices=failed,
                )
            # contended non-blocking without stat: the plain
            # ACQUIRED_LOCK= form — just report False
        return acquired

    def unlock(self, var: LockVar, image: int, team: Optional[TeamView] = None,
               stat: Optional[Stat] = None):
        """``unlock(l[image])``: release (must be the holder);
        ``stat`` receives ``STAT_UNLOCKED`` when not the holder.

        A *stopped* home is deliberately not reported here: the release
        must still land (the caller owns the word, and skipping it would
        wedge every blocked contender on a reporting-only condition) —
        a stopped home surfaces on the acquire side instead."""
        home = (var.shared.proc_of(image) if var.shared is not None
                else self._proc_of(image, team))
        if self.world.trace is not None:
            self._log("unlock", f"{var.name}[{image}]")

        def guarded():
            faults = self.world.faults
            if faults is not None:
                faults.check_images([home])
            yield from var.release(self.proc, home)

        yield from self._catch_stat(stat, guarded())

    # ------------------------------------------------------------------
    # Critical construct (F2008/F2018)
    # ------------------------------------------------------------------
    def critical_begin(self, name: str = "critical",
                       stat: Optional[Stat] = None):
        """Enter the named ``critical`` construct: at most one image of
        the current team executes the bracketed code at a time.  Lowered
        (as in OpenUH) to a runtime lock homed on team index 1.  Pair
        with :meth:`critical_end`; distinct ``name``\\ s are independent
        constructs, as distinct CRITICAL blocks are in Fortran.  Returns
        True when entered (F2018: ``stat`` reports lock conditions —
        ``STAT_UNLOCKED_FAILED_IMAGE`` when the previous occupant
        fail-stopped inside the construct)."""
        registry = self.world.lock_vars
        shared = self.current_team.shared
        key = f"__critical__t{shared.uid}:{name}"
        var = registry.get(key)
        if var is None:
            # First arrival creates the underlying lock; no collective
            # allocation is needed (the construct is statically named).
            var = registry[key] = LockVar(
                self.conduit, f"__critical__{name}", shared=shared
            )
        if self.world.trace is not None:
            self._log("critical", name)
        entered = yield from self.lock(var, 1, stat=stat)
        return entered

    def critical_end(self, name: str = "critical",
                     stat: Optional[Stat] = None):
        """Leave the named ``critical`` construct."""
        shared = self.current_team.shared
        var = self.world.lock_vars[f"__critical__t{shared.uid}:{name}"]
        yield from self.unlock(var, 1, stat=stat)

    # ------------------------------------------------------------------
    # Local work
    # ------------------------------------------------------------------
    def compute(self, flops: float = 0.0, seconds: float = 0.0):
        """Charge local computation: ``flops`` at the backend rate and/or a
        flat ``seconds``."""
        if flops > 0.0:
            yield self.compute_cost(flops)
        if seconds > 0.0:
            yield Timeout(seconds)
        if flops <= 0.0 and seconds <= 0.0:
            yield Timeout(0.0)


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    #: simulated completion time of the whole program (seconds)
    time: float
    #: per-image return values of ``main``, ordered by initial image index
    results: List[Any]
    #: cumulative fabric traffic over the run
    traffic: TrafficSnapshot
    #: the world, for post-mortem inspection (coarrays, counters, teams)
    world: World

    @property
    def trace(self) -> Optional[List[Tuple[float, int, str, str]]]:
        """Chronological (time, image, op, detail) records, when the run
        was launched with ``trace=True``."""
        return self.world.trace


def _image_done(world: World, proc: int, _result: Any) -> None:
    """``done`` callback of image ``proc``: its *normal* end of execution
    marks it stopped (F2018: a normally-terminated image is a "stopped
    image", distinct from a fail-stopped one).  A fail-stop records the
    failure before its kill triggers ``done``, so it skips the mark; an
    escaping error never triggers ``done`` at all."""
    faults = world.faults
    if faults is None or not faults.is_failed(proc):
        world.liveness.mark_stopped(proc)


def run_spmd(
    main: Callable[[CafContext], Any],
    num_images: Optional[int] = None,
    images_per_node: Optional[int] = None,
    spec: Optional[MachineSpec] = None,
    machine: Optional[Machine] = None,
    config: RuntimeConfig = UHCAF_2LEVEL,
    placements: Optional[Sequence[Placement]] = None,
    args: Tuple = (),
    max_events: Optional[int] = None,
    trace: bool = False,
    jitter_seed: int = 0,
    tiebreak_seed: Optional[int] = None,
    monitor: Optional[Any] = None,
    faults: Optional[FaultSchedule] = None,
    macro_events: Optional[bool] = None,
) -> SpmdResult:
    """Run ``main(ctx, *args)`` as an SPMD program on a simulated cluster.

    Either supply a prebuilt ``machine`` or let this build one from
    ``spec`` (default: the paper's cluster, sized to fit) with
    ``num_images`` and ``images_per_node``/``placements``.  ``trace=True``
    records every logged runtime operation on ``result.trace``;
    ``jitter_seed`` selects the OS-noise stream when the config enables
    ``compute_jitter``.

    ``tiebreak_seed`` fuzzes the engine's same-instant event order (see
    :mod:`repro.verify`): ``None`` keeps the historical insertion-order
    schedule.  ``monitor`` installs a concurrency monitor (e.g.
    :class:`repro.verify.HBMonitor`) on the engine for the duration of
    the run.

    ``faults`` installs a deterministic :class:`repro.faults.FaultSchedule`:
    listed images fail-stop at their times (their result is the
    :data:`repro.faults.FAILED` sentinel) and survivors observe
    ``STAT_FAILED_IMAGE`` at their next synchronization — via ``stat=``
    arguments, or as a raised
    :class:`repro.faults.FailedImageError` without one.  A null schedule
    (or None) leaves the run byte-identical to the fault-free runtime.

    ``macro_events`` overrides ``config.macro_events`` for this run:
    False forces every collective through the fine-grained path, True
    re-enables the (default-on) macro-event collapse, which engages only
    when every image owns its node.  The result is identical either way
    except in one known case: a blocking ``get`` into an image whose
    collapsed window is still delivering lands among the window's
    virtual NIC holds, so get completion times can differ; the run is
    then flagged ``world.macro.inexact`` (``disabled_reason ==
    "overlap"``).  This knob exists for A/B verification and benchmarks.
    """
    if macro_events is not None:
        config = config.with_(macro_events=macro_events)
    if machine is None:
        if num_images is None:
            raise ValueError("need num_images (or a prebuilt machine)")
        if spec is None:
            ipn = images_per_node or 1
            needed = -(-num_images // ipn)
            spec = paper_cluster(max(needed, 1))
        engine_kwargs: dict = {}
        if max_events is not None:
            engine_kwargs["max_events"] = max_events
        if tiebreak_seed is not None:
            engine_kwargs["tiebreak_seed"] = tiebreak_seed
        engine = Engine(**engine_kwargs)
        machine = build_machine(
            engine, spec, num_images,
            images_per_node=images_per_node, placements=placements,
        )
    else:
        engine = machine.engine
        if tiebreak_seed is not None and engine.tiebreak_seed != tiebreak_seed:
            raise ValueError(
                "tiebreak_seed must be passed to the prebuilt machine's "
                "Engine, not to run_spmd"
            )

    if monitor is not None:
        monitor.attach(machine.num_images)
        engine.monitor = monitor

    world = World(machine, config, jitter_seed=jitter_seed, trace=trace,
                  fault_schedule=faults)
    processes = []
    for proc in range(machine.num_images):
        process = Process(engine, main(CafContext(world, proc), *args),
                          name=f"image{proc + 1}", actor=proc)
        process.done.on_trigger(partial(_image_done, world, proc))
        processes.append(process)
    if world.faults is not None:
        world.faults.arm(processes)
    final_time = engine.run()
    return SpmdResult(
        time=final_time,
        results=[p.result for p in processes],
        traffic=machine.traffic(),
        world=world,
    )
