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
  world-level trace log, ``config.macro_events`` on, and the collective
  spans the *full* image set (a sub-team window can interleave with
  images outside the team).

One image per node
  Macro-events engage only when every image owns its node, so that the
  team's node leaders are all of its images.  Then every message takes
  the remote path and holds only its sender's NIC and progress engine,
  and a window replays as sweeps over per-image ledger slots.  Where a
  node holds several images, a committed window's intranode release
  ladders and fan-outs would hold shared buses *virtually* past early
  exits, and the next window's fine-grained traffic lands among those
  holds: on the paper's 8-per-node shapes nearly every run would lose
  its commit bet after one collapsed window and keep that window's
  drift in its end time.  The first replayable arrival on such a
  machine sets ``disabled_reason = "hierarchical"``, so the run is the
  fine-grained run by construction.

Dynamic window check (pinned at the FIRST arrival of each invocation)
  The engine must be *globally quiet*: every pending event is one of the
  coordinator's own not-yet-fired wake events, and every machine
  resource (conduit progress engines, NICs, memory buses) is idle.  Any
  foreign in-flight work — an unfinished put, a straggler's timeout —
  pins this invocation to the fine-grained path.  The check is re-run at
  commit (last arrival) against a snapshot of the engine's lifetime
  grant counter (:attr:`repro.sim.Engine.grants`): if anything acquired
  a resource while the gather was open, the window is demoted.  The
  idle sweep itself stays per resource: ``Engine.pending_events`` does
  not count the rest of the batch being drained, so a hold whose
  completion sits later in that batch is invisible to it — "no foreign
  pending event" does not imply "every resource is idle".

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
  only its own image's sender-side NIC and conduit engine, so
  consecutive windows can never need the same resource out of order — a
  new barrier or reduction window may therefore open and commit *under*
  the previous window's still-pending wakes, with staggered arrivals.
  This is what lets a back-to-back 10k-image allreduce loop stay
  collapsed even though recursive doubling's fold/unfold staggers the
  exit instants of each iteration.

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
images on one :class:`_RoundLedger`: TDLB's leader dissemination,
recursive doubling's fold/exchange/unfold, the two-level broadcast's
binomial tree (one stride per round, largest first; see
:meth:`MacroCollectives._replay_bcast`) and the linear barrier's arrival
round.  Images sit on pairwise distinct nodes, so a round holds each
image's NIC (and conduit progress engine) at most once and the
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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..sim import Hold, Park
from ..sim.primitives import all_idle
from .base import NOTIFY_NBYTES, combine_flops, payload_nbytes
from .reduce import REDUCE_OPS, _combine, _freeze

__all__ = ["MacroCollectives", "Replayed"]

#: window kinds :meth:`MacroCollectives.offer` knows how to replay; the
#: last three carry data (the replay also produces result values)
REPLAYABLE = ("tdlb", "linear", "reduce-2l", "reduce-rd", "bcast-2l")


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
    members passing through, to know when to forget it.
    """

    __slots__ = ("mode", "passed", "count", "opened", "when", "pos",
                 "payloads", "waiters", "park", "op", "source")

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


class _LeaderRing:
    """Per-team constants of the replay rounds, built once per team.

    Macro-events engage only when every image owns its node, so every
    image is its node's leader and slot ``i`` is team index ``i + 1``.
    Every message between two images takes the remote path, and slot
    ``i``'s sends hold only its node's NIC and conduit progress engine.
    Every remote route out of any node has the same overhead command
    shape, fabric and NIC cost table, so one resolved route (slot 0 to
    slot 1) prices every message; the per-slot resources are the ones
    the conduit would put on each image's own routes.
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
        self.engines = (list(map(conduit.progress_engine, nodes))
                        if type(route.overhead) is Hold else [])
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


class _RoundLedger:
    """One window's FIFO ledger of virtual resource holds: one NIC and
    one progress-engine slot per image.

    :meth:`send` issues one remote message from each selected slot and
    mirrors :meth:`repro.sim.Resource.hold` arithmetic elementwise: a
    request at ``t`` is granted at ``max(t, previous release)`` and
    released ``duration`` later, ``np.maximum(free, t) + duration``.  A
    round touches each slot at most once, so the FIFO order within it is
    irrelevant; a slot's successive sends must be fed in fine-grained
    order.  The engagement guard guarantees every resource starts the
    window idle, so the ledger starts empty.  The ring's one route
    prices every slot's messages.
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

    def flush(self) -> int:
        """Apply the swept messages to the conduit, interconnect and
        resource grant counters; return the number of grants."""
        messages = int(self.sent.sum())
        route = self.route
        self.world.conduit.counts[route.kind] += messages
        fabric = route.fabric
        fabric.messages += messages
        fabric.bytes += self.bytes
        held = [self.ring.nics]
        if self.engine is not None:
            held.append(self.ring.engines)
        sent = self.sent.tolist()
        for resources in held:
            for resource, count in zip(resources, sent):
                resource._granted += count
        return messages * len(held)


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


class MacroCollectives:
    """Per-World coordinator that gathers collective arrivals and, when
    the window is provably unobservable, replays it analytically.

    Beyond TDLB/linear barriers it collapses the paper's two-level
    reduction, flat recursive-doubling reduction, and two-level
    broadcast — the full window including payload movement, combine
    compute, and the result values themselves — on machines where every
    image owns its node.
    """

    def __init__(self, world):
        self.world = world
        self._num_images = world.machine.num_images
        self._gathers: Dict[tuple, _Gather] = {}
        #: wake events scheduled but not yet fired — the only pending
        #: engine events a quiet window is allowed to contain
        self._pending_wakes = 0
        #: engine grant counter snapshot taken when the open gather was
        #: pinned
        self._grant_mark = 0
        #: None while live; "hierarchical" / "async" / "contention" /
        #: "stagger" once permanently off ("overlap" is set by the
        #: post-commit audit)
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
        #: touches the fabric until the window's last delivery; this
        #: flag records a lost bet, and losing one also sets
        #: :attr:`disabled_reason` so it can happen at most once per run.
        self.inexact = False
        #: committed windows still delivering wakes, each as
        #: ``[remaining_wake_events, expected_grant_total]`` — empty when
        #: everything committed has fully delivered.  A new window may
        #: commit *under* a previous window's wakes, so more than one
        #: can be in flight; a later commit's own replay grants are
        #: folded into every earlier window's expectation so the audit
        #: only trips on genuinely foreign traffic.
        self._active_windows: List[list] = []
        #: team uid → its :class:`_LeaderRing`
        self._rings: Dict[int, _LeaderRing] = {}
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
        """The dynamic quiet-window test, taken at first arrival.

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
        """Re-check at last arrival: still quiet, and nothing acquired a
        resource while the gather was open.  Wakes pending here can only
        belong to a previous window this gather was allowed to open
        under (their firing is what delivered the later arrivals)."""
        engine = self.world.engine
        if engine.pending_events != self._pending_wakes:
            return False
        return engine.grants == self._grant_mark

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

    def _demote_open(self) -> bool:
        progressed = False
        for key in list(self._gathers):
            g = self._gathers.get(key)
            if g is None or g.mode != "macro":
                continue
            del self._gathers[key]
            self.demotions += 1
            if g.waiters:
                # Parked registrants resume *now*, later than their
                # fine-grained arrival instants — times have drifted.
                progressed = True
                self.inexact = True
            for proc in g.waiters:  # arrival order
                proc.resume(False)
            g.waiters.clear()
        return progressed

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

        The static screen and the quiet-window test run at the first
        arrival only: every later arrival of the same invocation shares
        its team, kind and run-wide observers.  Only the sticky disable
        and the team size, which rules out every sub-team collective,
        are tested per arrival.
        """
        if self.disabled_reason is not None or view.size != self._num_images:
            return None
        key = (view.shared.uid, kind, seq)
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

        engine = self.world.engine
        slot = view.index - 1
        now = engine.now
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
        if not stagger and self._commit_clear():
            self._commit(view, kind, g)
            # the last arriver parks too; its wake resolves it by
            # arrival position when it fires
            return g.park
        # The window was perturbed after registration — too late for
        # exact fine-grained timing, so never engage again.
        self._disable("stagger" if stagger else "contention")
        self.inexact = True
        self.demotions += 1
        for proc in g.waiters:  # arrival order
            proc.resume(False)
        g.waiters.clear()
        return None

    def _open(self, view, kind: str, seq, op: Any,
              source: Optional[int]) -> Optional[_Gather]:
        """First arrival of an invocation: the static screen (None when
        the window can never be replayed), then a macro-mode gather if
        the engine is quiet, else a fine-mode one."""
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
        if size <= 1 or kind not in REPLAYABLE:
            return None
        if len(view.shared.hierarchy.leaders) != size:
            # Some node holds several images: its intranode steps would
            # hold a shared bus virtually past the window's early exits,
            # where the next window's traffic lands (see the module
            # doc).  Off for the whole run: the team spans every image,
            # so this holds for every later window too.
            self._disable("hierarchical")
            return None
        # Broadcast windows must never open under a previous window's
        # wakes: overlapped windows have staggered arrivals, which a
        # broadcast cannot commit (see offer), and demoting parked
        # registrants would break exactness.
        if not self._window_clear(allow_overlap=kind != "bcast-2l"):
            self.fine_pins += 1
            return _Gather("fine")
        g = _Gather("macro", size, engine.now)
        g.park = Park(g.waiters, f"macro:{kind}[{seq}]")
        g.op = op
        g.source = source
        self._ensure_hook()
        self._grant_mark = engine.grants
        return g

    # ------------------------------------------------------------------
    # Commit: replay + wake scheduling + state mirroring
    # ------------------------------------------------------------------
    def _commit(self, view, kind: str, g: _Gather) -> None:
        rounds = _RoundLedger(self.world, self._ring(view.shared))
        results: Optional[list] = None
        if kind == "tdlb":
            exit_at = self._replay_tdlb(rounds, view.shared, g)
        elif kind == "linear":
            exit_at = self._replay_linear(rounds, view.shared, g)
        elif kind == "bcast-2l":
            exit_at, results = self._replay_bcast(rounds, g)
        else:  # "reduce-2l" and "reduce-rd": recursive doubling alone
            exit_at, results = self._replay_rd(rounds, g)
        grants = rounds.flush()
        self.replays += 1
        self.replays_by_kind[kind] = self.replays_by_kind.get(kind, 0) + 1

        # The commit is a bet that no foreign resource request lands
        # inside the window's (now virtual) delivery span.  Track the
        # window until its last wake and audit the engine's grant
        # counter there: a lost bet is marked inexact and disables
        # macro-events for the rest of the run (see the module doc's
        # exactness contract).  The replay's mirrored grants go into the
        # counter first.  A chained window committing under this one's
        # wakes is *not* foreign — its replay grants are exact by
        # construction — so they are also folded into every
        # still-delivering window's expectation.
        engine = self.world.engine
        engine.grants += grants
        for earlier in self._active_windows:
            earlier[1] += grants

        # One wake per distinct exit instant, in time order; within an
        # instant, images resume in team index order (a stable sort of
        # the per-index exit times).
        order = np.argsort(exit_at, kind="stable")
        times = exit_at[order]
        starts = [0, *(np.flatnonzero(times[1:] != times[:-1]) + 1).tolist()]
        ends = starts[1:] + [len(order)]
        positions = np.array(g.pos)[order].tolist()
        if results is None:
            values: list = [True] * len(order)
        else:
            values = [Replayed(results[i]) for i in order.tolist()]
        window = [len(starts), engine.grants]
        self._active_windows.append(window)
        fire = self._fire
        waiters = g.waiters
        for t, lo, hi in zip(times[starts].tolist(), starts, ends):
            self._pending_wakes += 1
            engine.schedule_at(
                t,
                partial(fire, window, waiters, positions[lo:hi],
                        values[lo:hi]),
                label="macro-wake",
            )
        self.wake_events += len(starts)

    def _fire(self, window: list, waiters: list, positions: List[int],
              values: list) -> None:
        """One wake: audit if it is the window's last, then resume the
        images exiting at this instant.  ``positions`` are arrival
        positions, resolved in ``waiters`` only now — the last arriver
        parks after its commit."""
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
        """The exact delay ``ctx.compute_cost(flops)`` would charge —
        same ``machine.compute`` call, so the same float."""
        world = self.world
        return world.machine.compute(
            flops, efficiency=world.config.compute_efficiency
        ).delay

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
        shared.cocounter(1).add(n - 1)

        exit_at = np.empty(n)
        root = ring.slots[:1]
        t = np.maximum(when[:1], delivered.max())
        for s in range(1, n):
            t, delivered = rounds.send(root, t, NOTIFY_NBYTES)
            shared.release_flag(s + 1).add(1)
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
