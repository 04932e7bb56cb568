"""Macro-events: collapsing deterministic collective windows analytically.

A barrier over *n* images costs the engine O(n) fine-grained events —
NIC injections, wire deliveries, flag updates — and a reduction or
broadcast adds payload transfers and combine timeouts on top.  But when
nothing can *observe or perturb* the window, those events are pure
bookkeeping: the protocol is closed-form, so every image's exit time
(and, for data-carrying collectives, its result value) can be computed
arithmetically and the whole window replaced by a handful of wake
events — one per distinct exit instant.  A flat 10k-image allreduce
collapses from hundreds of thousands of engine events to one.

The hard requirement is **exactness**, not approximation: a macro-on run
must produce bit-identical simulated times, coarray states, collective
results, traffic counters, and resource grant counts as a macro-off run.
That drives the engagement rules:

Static eligibility (checked at each invocation's first arrival by
:meth:`MacroCollectives.offer`)
  No monitor, no engine trace, no tiebreak RNG, no fault manager, no
  world-level trace log, and ``config.macro_events`` on.  A window on
  the full image set may be any replayable kind; one on a sub-team is a
  TDLB barrier or a two-level or recursive-doubling reduction (a
  broadcast commits only on the full team, see below).

Teams that are flat within themselves
  A window opens only on a team whose members each own their node
  *within the team* (``len(hierarchy.leaders) == size``): on the full
  team that means one image per node; a sub-team, such as HPL's column
  team on an 8-per-node machine, may share its nodes with images
  outside it.  Then every message between members takes the remote path
  and holds only its sender's NIC and progress engine, and a window
  replays as sweeps over per-member ledger slots.  Where a node holds
  several members, a committed window's intranode release ladders and
  fan-outs would hold shared buses *virtually* past early exits, and
  the next window's fine-grained traffic lands among those holds: on
  the paper's 8-per-node shapes nearly every such window would lose its
  commit bet and keep its drift.  So a team with several members on one
  node never opens a window; the verdict is cached per team at its
  first offered arrival, so each later arrival costs one set lookup,
  and the run's other teams are unaffected.

Dynamic window check (pinned at the FIRST arrival of each invocation)
  A full-team window needs the engine *globally quiet*: every pending
  event is one of the coordinator's own not-yet-fired wake events, and
  every machine resource (conduit progress engines, NICs, memory buses)
  is idle.  Any foreign in-flight work — an unfinished put, a
  straggler's timeout — pins this invocation to the fine-grained path.
  The check is re-run at commit (last arrival) against a snapshot of
  the engine's lifetime grant counter (:attr:`repro.sim.Engine.grants`):
  if anything acquired a resource while the gather was open, the window
  is demoted.  The idle sweep itself stays per resource:
  ``Engine.pending_events`` does not count the rest of the batch being
  drained, so a hold whose completion sits later in that batch is
  invisible to it — "no foreign pending event" does not imply "every
  resource is idle".

  A sub-team window is participant-aware instead.  It opens when every
  image outside the team is blocked or finished (counted in O(team) by
  :meth:`repro.runtime.program.World.others_waiting`), and every pending
  record is a macro wake, a delivery into the team's own mailboxes, or
  the record of a member that has not arrived yet and is computing in
  user code, still inside an operation on this same team, or in a
  transfer to a teammate with no delivery callback (HPL's row swap);
  the last three are told apart by walking that member's suspended
  ``yield from`` chain, at the first arrival only.  Then only members
  can act, each member's sends hold only its own node's NIC and
  progress engine, and every virtual hold on those ends by that
  member's own exit.  So the checks are per member.  The window claims
  every member's NIC and progress engine at its first arrival (a claim
  another image holds pins it) and keeps each claim until that member's
  exit wake.  A member's resources must be idle when it arrives (busy
  ones pin the window at the first arrival and demote it later), must
  see no grant between its arrival and the commit (else the window is
  demoted, ``"contention"``), and none beyond the replay's own between
  the commit and its exit (else the run reads ``inexact``,
  ``"overlap"``).  A teammate's swap may still hold its own NIC at the
  first arrival: it releases the NIC before it arrives itself.

Parked arrivals
  An engaged arrival records its time, arrival position and frozen
  payload in per-index arrays, and its process yields the gather's one
  :class:`~repro.sim.Park` command, which appends it to the gather's
  waiter list in arrival order.  Wakes and demotions resume those
  processes directly (:meth:`repro.sim.Process.resume`); no per-arrival
  event, wait command or generator exists.

Chained windows (sustained collapse)
  A committed window's pending wakes are pure deliveries: the replay
  released every resource, so nothing is held.  Every transfer touches
  only its own member's sender-side NIC and conduit engine, so
  consecutive windows can never need the same resource out of order — a
  new barrier or reduction window may therefore open and commit *under*
  the previous window's still-pending wakes, with staggered arrivals.
  This is what lets a back-to-back 10k-image allreduce loop stay
  collapsed even though recursive doubling's fold/unfold staggers the
  exit instants of each iteration, and what lets HPL's column team
  chain its pivot searches while its diagonal owner swaps rows.

  Broadcast windows additionally require every arrival on the commit
  instant: a fine-grained broadcast lets early subtrees finish *before*
  late members even arrive, so a gather across staggered arrivals would
  park members past their true exit times.  Reductions have no such
  hazard — every exit transitively depends on every arrival — so they
  commit staggered windows exactly.

Sticky asynchronous disable
  Non-blocking transfers (``put_nb``/``get_nb``, event-post relays)
  complete through callback chains that the quiet-window sweep cannot
  attribute; the first one observed permanently disables macro-events
  for the rest of the run (:meth:`MacroCollectives.note_async`).

When an invocation is pinned fine or demoted, every participant runs the
ordinary fine-grained generator with the invocation sequence number (or
op tag) it already drew — team counters advance identically either way.
A demotion triggered while registrants were already parked wakes them in
arrival order; because demotion also *disables* macro-events for the run
(the quiet-window invariant was violated, so exact replay can no longer
be promised), at most one window per run can be perturbed, and only in
programs that race asynchronous traffic against a collective.

A replayed window resumes the members that leave it at one instant in
team-index order, where the fine-grained path resumes them in the order
their last deliveries fire.  On full-team and sub-team windows alike, a
``lock``, an ``atomic_fetch_add`` or a ``get`` aimed at one image right
after a window can therefore resolve differently, unflagged.

The replay itself mirrors the fine-grained cost model operation by
operation — it prices every virtual transfer from the same conduit
:class:`~repro.runtime.conduit.Route` (overhead command and cost-table
entry) the event path sends over, with the same ``compute`` calls, the
same max/add structure, the same combine order (MPICH fold/exchange
order) and per-resource FIFO orderings — so the floats and values
produced are the very floats the event path would have produced
(floating-point addition is deterministic; the replay never
re-associates it).

Every window replays one *round* at a time as NumPy sweeps over the
members on one :class:`_RoundLedger`: TDLB's leader dissemination,
recursive doubling's fold/exchange/unfold, the two-level broadcast's
binomial tree (one stride per round, largest first; see
:meth:`MacroCollectives._replay_bcast`) and the linear barrier's arrival
round.  Members sit on pairwise distinct nodes, so a round holds each
member's NIC (and conduit progress engine) at most once and the
per-resource FIFO order within a round is moot; elementwise
``np.maximum``/``+`` on float64 are the same IEEE operations the event
path performs.  The linear barrier's root releases its images one send
at a time on its own slot.  Built-in reductions over same-shape ndarray
payloads combine a whole round as ``ufunc(own, partner)`` over a
stacked array.  See ``docs/simulation.md`` for the full argument.
"""

from __future__ import annotations

import math
from functools import partial
from operator import attrgetter
from types import GeneratorType
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..sim import Hold, Park, Process
from ..sim.primitives import all_idle
from .base import NOTIFY_NBYTES, combine_flops, payload_nbytes
from .reduce import REDUCE_OPS, _combine, _freeze

__all__ = ["MacroCollectives", "Replayed"]

#: window kinds :meth:`MacroCollectives.offer` knows how to replay; the
#: last three carry data (the replay also produces result values)
REPLAYABLE = ("tdlb", "linear", "reduce-2l", "reduce-rd", "bcast-2l")

#: the kinds that may also open on a sub-team (see the module doc)
SUBTEAM_KINDS = ("tdlb", "reduce-2l", "reduce-rd")

#: teams up to this size replay those kinds one message at a time on a
#: :class:`_SlotLedger`, larger ones as NumPy sweeps
SLOT_REPLAY_MAX = 16

#: the packages whose generators are runtime operations, not user code
_RUNTIME = tuple(f"{__package__.rpartition('.')[0]}.{name}."
                 for name in ("collectives", "faults", "runtime", "sim",
                              "teams"))


class Replayed:
    """Wrapper a data-carrying wake delivers its result in.

    A parked arrival resuming with a :class:`Replayed` means "the window
    was replayed — here is your collective's return value"; resuming
    with ``False`` means "run the fine-grained algorithm".  Like any
    plain object it is truthy, so barrier and data call sites alike
    test the resume value's truth and data sites unwrap ``.value``.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value


class _Gather:
    """One open collective invocation: who has arrived, in which mode.

    A macro-mode gather keeps per-index arrays (slot ``index - 1``) of
    arrival time, arrival position and frozen payload, and the processes
    parked on it in arrival order.  A fine-mode gather only counts the
    members passing through, to know when to forget it.  A sub-team
    gather also keeps its team's ring and, per arrived slot, the grant
    counts of the resources it claimed.
    """

    __slots__ = ("mode", "passed", "count", "opened", "when", "pos",
                 "payloads", "waiters", "park", "op", "source", "ring",
                 "marks")

    def __init__(self, mode: str, size: int = 0, now: float = 0.0):
        self.mode = mode  # "macro" | "fine"
        #: members seen so far (fine mode)
        self.passed = 0
        #: members arrived so far (macro mode)
        self.count = 0
        #: time of the first arrival
        self.opened = now
        #: per index: arrival time, arrival position, frozen payload
        self.when = [0.0] * size
        self.pos = [0] * size
        self.payloads: List[Any] = [None] * size
        #: parked processes, in arrival order (the ``Park`` handler
        #: appends each one)
        self.waiters: list = []
        self.park: Optional[Park] = None
        #: the reduction operator and broadcast source of the window
        self.op: Any = None
        self.source: Optional[int] = None
        #: sub-team windows: the team's ring, and per slot the grant
        #: counts of its claimed resources at arrival (None until then)
        self.ring: Optional[_LeaderRing] = None
        self.marks: List[Optional[list]] = []


class _LeaderRing:
    """Per-team constants of the replay rounds, built once per team.

    Macro-events engage only on a team whose members each own their
    node within the team, so every member is its node's leader and slot
    ``i`` is team index ``i + 1``.  Every message between two members
    takes the remote path, and slot ``i``'s sends hold only its node's
    NIC and conduit progress engine (``held[i]``).  Every remote route
    out of any node has the same overhead command shape, fabric and NIC
    cost table, so one resolved route (slot 0 to slot 1) prices every
    message; the per-slot resources are the ones the conduit would put
    on each member's own routes.
    """

    def __init__(self, world, shared):
        members = shared.members
        conduit = world.conduit
        self.size = k = len(members)
        #: slot 0's remote route to slot 1
        self.route = route = conduit.route(members[0], members[1])
        nodes = list(map(world.machine.topology.node_of, members))
        self.nics = list(map(world.machine.interconnect.nic, nodes))
        #: progress engines, when the profile serializes the overhead
        self.engines = engines = (list(map(conduit.progress_engine, nodes))
                                  if type(route.overhead) is Hold else [])
        #: per slot, the resources its sends hold
        self.held = (list(zip(self.nics, engines)) if engines
                     else [(nic,) for nic in self.nics])
        #: proc ids by slot
        self.procs = members
        self.slots = slots = np.arange(k)
        #: dissemination round r: slot j hears from slot (j - 2^r) mod k
        self.diss_sources = [
            (slots - (1 << r)) % k for r in range(math.ceil(math.log2(k)))
        ]
        # MPICH recursive doubling over the power-of-two core
        pow2 = 1 << (k.bit_length() - 1)
        rem = k - pow2
        #: fold/unfold pairs: even slot 2i absorbs odd slot 2i+1
        self.evens = slots[0:2 * rem:2]
        self.odds = slots[1:2 * rem:2]
        #: exchange participants, position = new rank
        self.active = np.concatenate([self.evens, slots[2 * rem:]])
        #: per exchange round, position → partner position
        core = np.arange(pow2)
        self.partners = [core ^ (1 << b) for b in range(pow2.bit_length() - 1)]
        #: binomial tree rounds, largest stride first: at stride ``s``
        #: every virtual rank ``v`` that is a multiple of ``2s`` with
        #: ``v + s < k`` sends to ``v + s``
        self.tree: List[Tuple[int, np.ndarray]] = []
        stride = 1 << ((k - 1).bit_length() - 1)
        while stride:
            self.tree.append((stride, np.arange(0, k - stride, 2 * stride)))
            stride >>= 1
        if k <= SLOT_REPLAY_MAX:
            #: the dissemination and recursive-doubling schedules as
            #: lists, for :class:`_SlotLedger`
            self.diss_source_slots = [s.tolist() for s in self.diss_sources]
            self.fold_pairs = list(zip(self.evens.tolist(),
                                       self.odds.tolist()))
            self.active_slots = self.active.tolist()
            self.partner_positions = [p.tolist() for p in self.partners]


class _RoundLedger:
    """One window's FIFO ledger of virtual resource holds: one NIC and
    one progress-engine slot per image.

    :meth:`send` issues one remote message from each selected slot and
    mirrors :meth:`repro.sim.Resource.hold` arithmetic elementwise: a
    request at ``t`` is granted at ``max(t, previous release)`` and
    released ``duration`` later, ``np.maximum(free, t) + duration``.  A
    round touches each slot at most once, so the FIFO order within it is
    irrelevant; a slot's successive sends must be fed in fine-grained
    order.  The engagement guard guarantees every slot's resources are
    idle from its arrival on, so the ledger starts empty.  The ring's
    one route prices every slot's messages.
    """

    def __init__(self, world, ring: _LeaderRing):
        self.world = world
        self.ring = ring
        self.route = route = ring.route
        self.overhead = route.overhead
        k = ring.size
        self.nic = np.full(k, -np.inf)
        self.engine = np.full(k, -np.inf) if ring.engines else None
        self.sent = np.zeros(k, dtype=np.int64)
        self.bytes = 0

    def _cost(self, nbytes: int) -> Tuple[float, float]:
        hold, wire = self.route.costs[nbytes]
        return hold.duration, wire

    def send(self, slots, t: np.ndarray, nbytes) -> Tuple[np.ndarray, np.ndarray]:
        """One message per slot in ``slots`` (an index array), issued at
        ``t``; ``nbytes`` is one size for all or a list per slot.
        Returns ``(source_done, delivered)`` per slot."""
        if isinstance(nbytes, int):
            inject, wire = self._cost(nbytes)
            self.bytes += nbytes * len(slots)
        else:
            costs = [self._cost(nb) for nb in nbytes]
            inject = np.array([c[0] for c in costs])
            wire = np.array([c[1] for c in costs])
            self.bytes += sum(nbytes)
        overhead = self.overhead
        if overhead is not None:
            if self.engine is not None:
                t = np.maximum(self.engine[slots], t) + overhead.duration
                self.engine[slots] = t
            else:
                t = t + overhead.delay
        t = np.maximum(self.nic[slots], t) + inject
        self.nic[slots] = t
        self.sent[slots] += 1
        return t, t + wire

    def counts(self) -> List[int]:
        """Messages sent per slot."""
        return self.sent.tolist()

    def flush(self) -> int:
        """Apply the swept messages to the conduit's traffic counters and
        the resource grant counters; return the number of grants."""
        sent = self.counts()
        messages = sum(sent)
        kind = self.route.kind
        conduit = self.world.conduit
        conduit.counts[kind] += messages
        conduit.bytes[kind] += self.bytes
        held = [self.ring.nics]
        if self.engine is not None:
            held.append(self.ring.engines)
        for resources in held:
            for resource, count in zip(resources, sent):
                resource._granted += count
        return messages * len(held)


class _SlotLedger(_RoundLedger):
    """:class:`_RoundLedger` one message at a time, on Python floats.
    ``max(free, t) + duration`` is the same IEEE arithmetic as the NumPy
    sweep, so a small team, where a NumPy call per round costs more
    than a loop over its members, replays on this one (see
    :data:`SLOT_REPLAY_MAX`)."""

    def __init__(self, world, ring: _LeaderRing):
        self.world = world
        self.ring = ring
        self.route = ring.route
        self.overhead = ring.route.overhead
        k = ring.size
        self.nic = [-math.inf] * k
        self.engine = [-math.inf] * k if ring.engines else None
        self.sent = [0] * k
        self.bytes = 0

    def send(self, slot: int, t: float, nbytes: int) -> Tuple[float, float]:
        """One message from ``slot`` issued at ``t``; returns
        ``(source_done, delivered)``."""
        hold, wire = self.route.costs[nbytes]
        self.bytes += nbytes
        overhead = self.overhead
        if overhead is not None:
            engine = self.engine
            if engine is not None:
                t = max(engine[slot], t) + overhead.duration
                engine[slot] = t
            else:
                t = t + overhead.delay
        nic = self.nic
        t = max(nic[slot], t) + hold.duration
        nic[slot] = t
        self.sent[slot] += 1
        return t, t + wire

    def counts(self) -> List[int]:
        return self.sent


_shape_of = attrgetter("shape")
_dtype_of = attrgetter("dtype")


def _stack(op, vals: list) -> Optional[np.ndarray]:
    """``vals`` stacked into one array when a round's combine can run as
    a single ufunc call: a built-in op over plain ndarrays of one shape
    and one native numeric dtype (so the ufunc result keeps that dtype,
    exactly as the per-pair combine does).  None otherwise.  A flat
    team has thousands of values, so the screens run as C-level maps and
    ``np.array`` stacks them (``np.stack`` loops in Python)."""
    if not isinstance(op, str) or op not in REDUCE_OPS:
        return None
    first = vals[0]
    if type(first) is not np.ndarray or first.ndim == 0:
        return None
    dtype = first.dtype
    if dtype.kind not in "biufc" or not dtype.isnative:
        return None
    if (
        set(map(type, vals)) != {np.ndarray}
        or set(map(_shape_of, vals)) != {first.shape}
        or set(map(_dtype_of, vals)) != {dtype}
    ):
        return None
    return np.array(vals)


def _fold(op, work, own: np.ndarray, other: np.ndarray) -> None:
    """``work[own[j]] = op(work[own[j]], work[other[j]])`` for every
    ``j``, all from the pre-round values, own operand first."""
    if isinstance(work, np.ndarray):
        work[own] = REDUCE_OPS[op](work[own], work[other])
        return
    own_l = own.tolist()
    new = [_combine(op, work[a], work[b]) for a, b in zip(own_l, other.tolist())]
    for a, value in zip(own_l, new):
        work[a] = value


def _unchanged(ring: _LeaderRing, marks: list) -> bool:
    """Whether no grant reached any member's resources since it arrived."""
    for resources, counts in zip(ring.held, marks):
        if [r._granted for r in resources] != counts:
            return False
    return True


_CODES: tuple = ()


def _runtime_codes() -> tuple:
    """The code objects of ``Conduit.send`` and ``CafContext.compute``,
    imported on first use: the runtime imports this module."""
    global _CODES
    if not _CODES:
        from ..runtime.conduit import Conduit
        from ..runtime.program import CafContext
        _CODES = (Conduit.send.__code__, CafContext.compute.__code__)
    return _CODES


def _busy(resources) -> bool:
    """Whether any of a member's resources is held or queued for."""
    for resource in resources:
        if resource._in_use:
            return True
    return False


def _may_arrive(process: Process, shared) -> bool:
    """Whether a member that has not arrived yet, with a record pending,
    is doing what a sub-team window may open under: computing in user
    code, in a transfer to a teammate with no delivery callback, or
    inside an operation on this same team.  Walks its suspended ``yield
    from`` chain, innermost last."""
    send_code, compute_code = _runtime_codes()
    chain = []
    gen = process.generator
    while type(gen) is GeneratorType and gen.gi_frame is not None:
        chain.append(gen)
        gen = gen.gi_yieldfrom
    if not chain:
        return False
    inner = chain[-1].gi_frame
    code = inner.f_code
    if code is send_code:
        local = inner.f_locals
        if (local["on_delivered"] is None
                and local["route"].dst in shared.proc_to_index):
            return True
    elif code is compute_code or not inner.f_globals.get(
            "__name__", "").startswith(_RUNTIME):
        return True
    for gen in chain:
        view = gen.gi_frame.f_locals.get("view")
        if getattr(view, "shared", None) is shared:
            return True
    return False


class MacroCollectives:
    """Per-World coordinator that gathers collective arrivals and, when
    the window is provably unobservable, replays it analytically.

    Beyond TDLB/linear barriers it collapses the paper's two-level
    reduction, flat recursive-doubling reduction, and two-level
    broadcast — the full window including payload movement, combine
    compute, and the result values themselves — on teams whose members
    each own their node within the team.
    """

    def __init__(self, world):
        self.world = world
        self._num_images = world.machine.num_images
        self._gathers: Dict[tuple, _Gather] = {}
        #: wake events scheduled but not yet fired — the only pending
        #: engine events a quiet window is allowed to contain
        self._pending_wakes = 0
        #: engine grant counter snapshot taken when the open full-team
        #: gather was pinned (later commits add their own grants)
        self._grant_mark = 0
        #: None while live; "async" / "contention" / "stagger" once
        #: permanently off ("overlap" is set by the post-commit audits)
        self.disabled_reason: Optional[str] = None
        #: windows replayed analytically
        self.replays = 0
        #: replayed windows broken down by kind ("tdlb", "reduce-2l", ...)
        self.replays_by_kind: Dict[str, int] = {}
        #: invocations pinned to fine-grained at first arrival
        self.fine_pins = 0
        #: gathers demoted after registration began
        self.demotions = 0
        #: engine events spent on wakes (vs. fine-grained thousands)
        self.wake_events = 0
        #: True once a committed window was overlapped by foreign
        #: resource traffic (or a demotion interrupted parked
        #: registrants): macro-on times may have drifted from macro-off
        #: from that window onward.  Committing is a bet that nothing
        #: touches the window's resources until its last delivery; this
        #: flag records a lost bet, and losing one also sets
        #: :attr:`disabled_reason` so it can happen at most once per run.
        self.inexact = False
        #: committed full-team windows still delivering wakes, each as
        #: ``[remaining_wake_events, expected_grant_total]`` — empty when
        #: everything committed has fully delivered.  A new window may
        #: commit *under* a previous window's wakes, so more than one
        #: can be in flight; a later commit's own replay grants are
        #: folded into every earlier window's expectation so the audit
        #: only trips on genuinely foreign traffic.
        self._active_windows: List[list] = []
        #: team uid → its :class:`_LeaderRing`
        self._rings: Dict[int, _LeaderRing] = {}
        #: uids of the teams that never open a window (several members
        #: on one node, or a single member)
        self._skip: set = set()
        #: resource → ``[proc, count]``: the resources sub-team windows
        #: hold for their members, each from the window's first arrival
        #: to that member's exit wake.  One image may hold its own
        #: resources for two windows of its team at once (it is still
        #: parked in the earlier one), never another image's.
        self._claimed: Dict[Any, list] = {}
        self._hook_installed = False

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------
    def _ring(self, shared) -> _LeaderRing:
        ring = self._rings.get(shared.uid)
        if ring is None:
            ring = self._rings[shared.uid] = _LeaderRing(self.world, shared)
        return ring

    def _window_clear(self, allow_overlap: bool) -> bool:
        """The dynamic quiet-window test of a full-team window, taken at
        first arrival.

        The engine must be quiet up to this coordinator's own pending
        wakes: every pending event is a not-yet-fired macro wake, and
        every fabric resource is idle.  Pending wakes are pure virtual
        deliveries — the replay that scheduled them released every
        resource, and every transfer touches only its own image's
        sender-side NIC/conduit engine — so a *new* window may open
        under them when ``allow_overlap``.

        The resource sweep cannot be replaced by the pending-event
        count: that count misses the rest of the batch being drained,
        which may hold the completion of a hold still in progress.
        """
        if self._pending_wakes != 0 and not allow_overlap:
            return False
        if self.world.engine.pending_events != self._pending_wakes:
            return False
        return all_idle(self.world.resources())

    def _commit_clear(self) -> bool:
        """Re-check of a full-team window at last arrival: still quiet,
        and nothing acquired a resource while the gather was open.  Wakes
        pending here can only belong to a previous window this gather
        was allowed to open under (their firing is what delivered the
        later arrivals)."""
        engine = self.world.engine
        if engine.pending_events != self._pending_wakes:
            return False
        return engine.grants == self._grant_mark

    def _claimable(self, ring: _LeaderRing) -> bool:
        """No member's resources are held for another image."""
        claimed = self._claimed
        for proc, resources in zip(ring.procs, ring.held):
            for resource in resources:
                owner = claimed.get(resource)
                if owner is not None and owner[0] != proc:
                    return False
        return True

    def _claim(self, ring: _LeaderRing) -> None:
        claimed = self._claimed
        for proc, resources in zip(ring.procs, ring.held):
            for resource in resources:
                owner = claimed.get(resource)
                if owner is None:
                    claimed[resource] = [proc, 1]
                else:
                    owner[1] += 1

    def _unclaim(self, resources) -> None:
        claimed = self._claimed
        for resource in resources:
            owner = claimed[resource]
            owner[1] -= 1
            if not owner[1]:
                del claimed[resource]

    def _members_only(self, shared) -> bool:
        """The participant-aware test of a sub-team window, taken at
        first arrival: every image outside the team is blocked or
        finished, and every pending record is a macro wake, a delivery
        into this team's mailboxes, or the record of a member that may
        arrive (:func:`_may_arrive`)."""
        world = self.world
        if not world.others_waiting(shared.members):
            return False
        engine = world.engine
        if engine.pending_events == self._pending_wakes:
            return True
        members = shared.proc_to_index
        deposit = shared.deposit
        for _key, fn, label in engine.pending_records():
            if label == "macro-wake":
                continue
            cls = fn.__class__
            if cls is partial and fn.func == deposit:
                continue
            if cls is Process and fn.actor in members and _may_arrive(fn, shared):
                continue
            return False
        return True

    # ------------------------------------------------------------------
    # Sticky disables and demotion
    # ------------------------------------------------------------------
    def _disable(self, reason: str) -> None:
        """Switch macro-events off for the rest of the run.  ``offer``
        returns before it counts a fine gather's members once disabled,
        so every open fine gather is forgotten here."""
        self.disabled_reason = reason
        gathers = self._gathers
        for key in [k for k, g in gathers.items() if g.mode == "fine"]:
            del gathers[key]

    def note_async(self) -> None:
        """Asynchronous traffic exists: disable for the run, demote any
        open gather (called by the conduit on every ``transfer_nb``)."""
        if self.disabled_reason is None:
            self._disable("async")
        self._demote_open()

    def on_drain(self) -> bool:
        """Engine drain hook: if the queue ran dry with a gather still
        open, some member never arrived — demote so the registrants run
        the fine-grained path and produce its diagnostics (deadlock
        reports name real cells, not macro internals)."""
        return self._demote_open()

    def _demote(self, g: _Gather) -> None:
        """Demote a macro gather the caller has forgotten: give back a
        sub-team gather's claims, then resume the parked registrants on
        the fine-grained path, in arrival order."""
        ring = g.ring
        if ring is not None:
            for resources in ring.held:
                self._unclaim(resources)
        self.demotions += 1
        for proc in g.waiters:
            proc.resume(False)
        g.waiters.clear()

    def _demote_open(self) -> bool:
        progressed = False
        for key in list(self._gathers):
            g = self._gathers.get(key)
            if g is None or g.mode != "macro":
                continue
            del self._gathers[key]
            if g.waiters:
                # Parked registrants resume *now*, later than their
                # fine-grained arrival instants — times have drifted.
                progressed = True
                self.inexact = True
            self._demote(g)
        return progressed

    def _lose(self, g: _Gather, reason: str) -> None:
        """Demote a gather perturbed after registration began — too late
        for exact fine-grained timing, so never engage again."""
        self._disable(reason)
        self.inexact = True
        self._demote(g)

    def _ensure_hook(self) -> None:
        if not self._hook_installed:
            self._hook_installed = True
            self.world.engine.add_drain_hook(self.on_drain)

    # ------------------------------------------------------------------
    # The gather protocol
    # ------------------------------------------------------------------
    def offer(self, view, kind: str, seq, payload: Any = None,
              op: Any = None, source: Optional[int] = None) -> Optional[Park]:
        """Offer this collective invocation to the macro coordinator.

        A plain call made by the arriving image.  ``seq`` is the
        invocation's identity within the team — the barrier sequence
        number or the data collective's already-drawn op tag.  Returns
        None when the invocation runs fine-grained (ineligible, pinned,
        or demoted by this very arrival): the caller falls through to
        the ordinary algorithm with the same ``seq``/tag it already
        drew.  Otherwise returns a :class:`~repro.sim.Park` command the
        caller yields once; it resumes with ``True`` (barrier) or a
        :class:`Replayed` (data kinds) when the window was replayed, or
        with ``False`` when the gather was demoted.

        The static screen and the window test run at the first arrival
        only: every later arrival of the same invocation shares its
        team, kind and run-wide observers.  Only the sticky disable and
        the cached verdict on teams that never open a window are tested
        per arrival, and a sub-team member's resources must be idle
        (their grant counts are noted for the commit).
        """
        if self.disabled_reason is not None:
            return None
        uid = view.shared.uid
        if uid in self._skip:
            return None
        key = (uid, kind, seq)
        g = self._gathers.get(key)
        if g is None:
            g = self._open(view, kind, seq, op, source)
            if g is None:
                return None
            self._gathers[key] = g
        if g.mode != "macro":
            g.passed += 1
            if g.passed >= view.size:
                del self._gathers[key]
            return None

        slot = view.index - 1
        ring = g.ring
        if ring is not None:
            resources = ring.held[slot]
            if _busy(resources):
                # a member's NIC or progress engine busy at its arrival
                del self._gathers[key]
                self._lose(g, "contention")
                return None
            g.marks[slot] = [r._granted for r in resources]
        now = self.world.engine.now
        g.when[slot] = now
        g.pos[slot] = count = g.count
        g.count = count = count + 1
        if payload is not None:
            g.payloads[slot] = _freeze(payload)
        if count < view.size:
            return g.park
        del self._gathers[key]
        # Broadcast windows require every arrival on the commit
        # instant: fine-grained, an early subtree finishes before a
        # late member arrives, so exits can precede the commit —
        # impossible to schedule, and the parked member resumed
        # late.  Reduce/barrier exits all depend on the last
        # arrival, so staggered windows commit exactly.
        stagger = kind == "bcast-2l" and g.opened != now
        if not stagger and (self._commit_clear() if ring is None
                            else _unchanged(ring, g.marks)):
            self._commit(view, kind, g)
            # the last arriver parks too; its wake resolves it by
            # arrival position when it fires
            return g.park
        # The window was perturbed after registration.
        self._lose(g, "stagger" if stagger else "contention")
        return None

    def _open(self, view, kind: str, seq, op: Any,
              source: Optional[int]) -> Optional[_Gather]:
        """First arrival of an invocation: the static screen (None when
        the window can never be replayed), then a macro-mode gather if
        the window test passes, else a fine-mode one."""
        world = self.world
        engine = world.engine
        if (
            not world.config.macro_events
            or engine.monitor is not None
            or engine.trace is not None
            or engine.tiebreak_seed is not None
            or world.faults is not None
            or world.trace is not None
        ):
            return None
        size = view.size
        shared = view.shared
        if size <= 1 or len(shared.hierarchy.leaders) != size:
            # Some node holds several members: its intranode steps
            # would hold a shared bus virtually past the window's early
            # exits, where the next window's traffic lands (see the
            # module doc).  This team never opens a window.
            self._skip.add(shared.uid)
            return None
        ring = None
        if size == self._num_images:
            if kind not in REPLAYABLE:
                return None
            # Broadcast windows must never open under a previous
            # window's wakes: overlapped windows have staggered
            # arrivals, which a broadcast cannot commit (see offer), and
            # demoting parked registrants would break exactness.
            clear = self._window_clear(allow_overlap=kind != "bcast-2l")
        else:
            if kind not in SUBTEAM_KINDS:
                return None
            ring = self._ring(shared)
            clear = (not _busy(ring.held[view.index - 1])
                     and self._claimable(ring)
                     and self._members_only(shared))
        if not clear:
            self.fine_pins += 1
            return _Gather("fine")
        g = _Gather("macro", size, engine.now)
        g.park = Park(g.waiters, f"macro:{kind}[{seq}]")
        g.op = op
        g.source = source
        self._ensure_hook()
        if ring is None:
            self._grant_mark = engine.grants
        else:
            self._claim(ring)
            g.ring = ring
            g.marks = [None] * size
        return g

    # ------------------------------------------------------------------
    # Commit: replay + wake scheduling + state mirroring
    # ------------------------------------------------------------------
    def _commit(self, view, kind: str, g: _Gather) -> None:
        shared = view.shared
        ring = g.ring or self._ring(shared)
        small = kind in SUBTEAM_KINDS and ring.size <= SLOT_REPLAY_MAX
        rounds = (_SlotLedger if small else _RoundLedger)(self.world, ring)
        results: Optional[list] = None
        if kind == "tdlb":
            replay_tdlb = self._replay_tdlb_slots if small else self._replay_tdlb
            exit_at = replay_tdlb(rounds, shared, g)
        elif kind == "linear":
            exit_at = self._replay_linear(rounds, shared, g)
        elif kind == "bcast-2l":
            exit_at, results = self._replay_bcast(rounds, g)
        else:  # "reduce-2l" and "reduce-rd": recursive doubling alone
            replay_rd = self._replay_rd_slots if small else self._replay_rd
            exit_at, results = replay_rd(rounds, g)
        grants = rounds.flush()
        self.replays += 1
        self.replays_by_kind[kind] = self.replays_by_kind.get(kind, 0) + 1

        # The commit is a bet that no foreign resource request lands
        # inside the window's (now virtual) delivery span.  A full-team
        # window is tracked until its last wake, which audits the
        # engine's grant counter; a sub-team window audits each
        # member's own resources at its exit wake.  A lost bet is marked
        # inexact and disables macro-events for the rest of the run (see
        # the module doc's exactness contract).  The replay's mirrored
        # grants go into the counter first.  A chained window committing
        # under another one's wakes is *not* foreign — its replay grants
        # are exact by construction — so they are also folded into every
        # still-delivering full-team window's expectation, and into an
        # open full-team gather's mark.
        engine = self.world.engine
        engine.grants += grants
        self._grant_mark += grants
        for earlier in self._active_windows:
            earlier[1] += grants

        # One wake per distinct exit instant, in time order; within an
        # instant, images resume in team index order (a stable sort of
        # the per-index exit times: a list from a slot replay, an array
        # from the sweeps).
        if isinstance(exit_at, list):
            order = sorted(range(len(exit_at)), key=exit_at.__getitem__)
            times = [exit_at[i] for i in order]
            starts = [i for i, t in enumerate(times)
                      if not i or t != times[i - 1]]
        else:
            order = np.argsort(exit_at, kind="stable")
            times = exit_at[order]
            starts = [0, *(np.flatnonzero(times[1:] != times[:-1]) + 1).tolist()]
            order = order.tolist()
            times = times.tolist()
        ends = starts[1:] + [len(order)]
        pos = g.pos
        positions = [pos[i] for i in order]
        if results is None:
            values: list = [True] * len(order)
        else:
            values = [Replayed(results[i]) for i in order]
        waiters = g.waiters
        if g.ring is None:
            window = [len(starts), engine.grants]
            self._active_windows.append(window)
            wakes = [partial(self._fire, window, waiters, positions[lo:hi],
                             values[lo:hi])
                     for lo, hi in zip(starts, ends)]
        else:
            # each member's resources, with their grant counts once the
            # replay's own grants are in
            window = [len(starts)]
            held = [ring.held[i] for i in order]
            audit = [(res, [r._granted for r in res]) for res in held]
            wakes = [partial(self._fire_members, window, waiters,
                             positions[lo:hi], values[lo:hi], audit[lo:hi])
                     for lo, hi in zip(starts, ends)]
        for t, wake in zip([times[lo] for lo in starts], wakes):
            self._pending_wakes += 1
            engine.schedule_at(t, wake, label="macro-wake")
        self.wake_events += len(starts)

    def _fire(self, window: list, waiters: list, positions: List[int],
              values: list) -> None:
        """One wake of a full-team window: audit if it is the window's
        last, then resume the images exiting at this instant.
        ``positions`` are arrival positions, resolved in ``waiters``
        only now — the last arriver parks after its commit."""
        self._pending_wakes -= 1
        window[0] -= 1
        last = window[0] == 0
        if last:
            self._active_windows.remove(window)
            if (
                self.disabled_reason is None
                and self.world.engine.grants != window[1]
            ):
                self.inexact = True
                self._disable("overlap")
        self._resume(waiters, positions, values, last)

    def _fire_members(self, window: list, waiters: list,
                      positions: List[int], values: list,
                      audit: list) -> None:
        """One wake of a sub-team window: each member exiting at this
        instant gives back its resources, which must have seen no grant
        beyond the replay's own since the commit; then they resume."""
        self._pending_wakes -= 1
        window[0] -= 1
        exact = True
        for resources, marks in audit:
            self._unclaim(resources)
            if [r._granted for r in resources] != marks:
                exact = False
        if not exact:
            self.inexact = True
            if self.disabled_reason is None:
                self._disable("overlap")
        self._resume(waiters, positions, values, window[0] == 0)

    @staticmethod
    def _resume(waiters: list, positions: List[int], values: list,
                last: bool) -> None:
        for p, value in zip(positions, values):
            waiters[p].resume(value)
        if last:
            # Every waiter has resumed.  A process whose last wait was
            # this window still names its Park, whose queue is this
            # list: left full, finished processes would hold each other
            # in a cycle that only the garbage collector frees.
            waiters.clear()

    # -- a compute_cost Timeout's span ----------------------------------
    def _compute_delay(self, flops: float) -> float:
        """The exact delay ``ctx.compute_cost(flops)`` charges: the same
        command, from the world's table of them."""
        world = self.world
        command = world.compute_costs.get(flops)
        if command is None:
            command = world.compute_costs[flops] = world.machine.compute(
                flops, efficiency=world.config.compute_efficiency)
        return command.delay

    # Every replay below sends on the window's one ledger and returns
    # its exit instants as one float64 array indexed ``index - 1`` (and,
    # for data kinds, the per-index result values as a list).

    # -- Algorithm 1 (barrier_tdlb) -------------------------------------
    def _replay_tdlb(self, rounds: _RoundLedger, shared,
                     g: _Gather) -> np.ndarray:
        """With no intranode sets TDLB is the one-wait dissemination
        among the leaders, one vector sweep per round.  Every window
        notifies every (leader, round) flag once, so the flags are
        credited in O(1)."""
        ring = rounds.ring
        ready = np.array(g.when)
        for sources in ring.diss_sources:
            done, delivered = rounds.send(ring.slots, ready, NOTIFY_NBYTES)
            ready = np.maximum(done, delivered[sources])
        shared.credit_diss("tdlb-leaders")
        return ready

    # -- barrier_linear -------------------------------------------------
    def _replay_linear(self, rounds: _RoundLedger, shared,
                       g: _Gather) -> np.ndarray:
        """Images 2..n notify the root (index 1) in one round; the root
        releases them one send at a time, in index order."""
        ring = rounds.ring
        n = ring.size
        when = np.array(g.when)
        _, delivered = rounds.send(ring.slots[1:], when[1:], NOTIFY_NBYTES)
        shared.diss_flag(1, 0, "linear-arrive").add(n - 1)

        exit_at = np.empty(n)
        root = ring.slots[:1]
        t = np.maximum(when[:1], delivered.max())
        for s in range(1, n):
            t, delivered = rounds.send(root, t, NOTIFY_NBYTES)
            shared.diss_flag(s + 1, 0, "linear-release").add(1)
            exit_at[s] = delivered[0]
        exit_at[0] = t[0]
        return exit_at

    # -- reduce._recursive_doubling over every image ---------------------
    def _replay_rd(self, rounds: _RoundLedger,
                   g: _Gather) -> Tuple[np.ndarray, list]:
        """Replay the MPICH fold/exchange/unfold allreduce, one vector
        sweep per round: ``reduce-rd`` as is, and ``reduce-2l``, whose
        intranode gather and fan-out are empty when every image leads
        its node.  Each round's senders sit on pairwise-distinct nodes,
        so only per-sender serialization (the per-slot ledger) matters.
        """
        ring = rounds.ring
        k = ring.size
        vals, op = g.payloads, g.op
        # combine_flops of each participant's *entry* accumulator, as the
        # fine-grained generator captures it in its ``value`` argument
        work = _stack(op, vals)
        if work is not None:
            dt = np.full(k, self._compute_delay(combine_flops(vals[0])))
            row_nbytes = payload_nbytes(work[0])

            def sizes(slots):
                return row_nbytes
        else:
            work = list(vals)
            dt = np.array([self._compute_delay(combine_flops(v)) for v in vals])

            def sizes(slots):
                return [payload_nbytes(work[i]) for i in slots.tolist()]

        t = np.array(g.when)
        evens, odds, active = ring.evens, ring.odds, ring.active

        # Fold: odd extras push into their even neighbour and sit out.
        if len(odds):
            done, delivered = rounds.send(odds, t[odds], sizes(odds))
            t[evens] = np.maximum(t[evens], delivered) + dt[evens]
            t[odds] = done
            _fold(op, work, evens, odds)

        # Pairwise exchange rounds over the power-of-two core.
        for partner in ring.partners:
            done, delivered = rounds.send(active, t[active], sizes(active))
            t[active] = np.maximum(done, delivered[partner]) + dt[active]
            _fold(op, work, active, active[partner])

        # Unfold: evens hand the finished value back to their odd.
        if len(odds):
            done, delivered = rounds.send(evens, t[evens], sizes(evens))
            t[evens] = done
            t[odds] = np.maximum(t[odds], delivered)
            if isinstance(work, np.ndarray):
                work[odds] = work[evens]
            else:
                for e, o in zip(evens.tolist(), odds.tolist()):
                    work[o] = _freeze(work[e])
        return t, list(work)

    # -- the same two on a _SlotLedger ---------------------------------
    def _replay_tdlb_slots(self, rounds: _SlotLedger, shared,
                           g: _Gather) -> List[float]:
        """:meth:`_replay_tdlb`, one message at a time."""
        send = rounds.send
        ready = list(g.when)
        for sources in rounds.ring.diss_source_slots:
            out = [send(j, t, NOTIFY_NBYTES) for j, t in enumerate(ready)]
            ready = [max(done, out[s][1]) for (done, _), s in zip(out, sources)]
        shared.credit_diss("tdlb-leaders")
        return ready

    def _replay_rd_slots(self, rounds: _SlotLedger,
                         g: _Gather) -> Tuple[List[float], list]:
        """:meth:`_replay_rd`, one message and one combine at a time,
        each from the pre-round values."""
        ring = rounds.ring
        send = rounds.send
        op = g.op
        work = list(g.payloads)
        delay = self._compute_delay
        dt = [delay(combine_flops(v)) for v in work]
        t = list(g.when)
        pairs = ring.fold_pairs
        for e, o in pairs:
            done, delivered = send(o, t[o], payload_nbytes(work[o]))
            t[e] = max(t[e], delivered) + dt[e]
            t[o] = done
            work[e] = _combine(op, work[e], work[o])
        active = ring.active_slots
        for partner in ring.partner_positions:
            out = [send(a, t[a], payload_nbytes(work[a])) for a in active]
            new = [_combine(op, work[a], work[active[p]])
                   for a, p in zip(active, partner)]
            for a, (done, _), p, value in zip(active, out, partner, new):
                t[a] = max(done, out[p][1]) + dt[a]
                work[a] = value
        for e, o in pairs:
            done, delivered = send(e, t[e], payload_nbytes(work[e]))
            t[e] = done
            t[o] = max(t[o], delivered)
            work[o] = _freeze(work[e])
        return t, work

    # -- bcast_two_level ------------------------------------------------
    def _replay_bcast(self, rounds: _RoundLedger,
                      g: _Gather) -> Tuple[np.ndarray, list]:
        """With every image a leader the two-level broadcast is the
        binomial tree rooted at the source, one sweep per stride,
        largest first.  Exact because each image sends to its children
        in decreasing stride order, holds only its own node's NIC and
        progress engine (one ledger slot, so its sends serialize there
        as they do on the event path), and an image sending at stride s
        received its payload at stride lowbit(v) >= 2s, which was swept
        earlier.  A receiver starts sending at max(arrival, delivery)."""
        ring = rounds.ring
        k = ring.size
        root = g.source - 1
        seed = g.payloads[root]
        nbytes = payload_nbytes(seed)
        t = np.array(g.when)
        for stride, vsend in ring.tree:
            senders = (vsend + root) % k
            receivers = (vsend + (stride + root)) % k
            done, delivered = rounds.send(senders, t[senders], nbytes)
            t[senders] = done
            t[receivers] = np.maximum(t[receivers], delivered)
        return t, [_freeze(seed) for _ in range(k)]
