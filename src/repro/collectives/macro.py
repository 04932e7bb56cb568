"""Macro-events: collapsing deterministic collective windows analytically.

A barrier over *n* images costs the engine O(n) fine-grained events —
per-slave bus holds, per-leader NIC injections, wire deliveries, release
ladders — and a reduction or broadcast adds payload transfers and
combine timeouts on top.  But when nothing can *observe or perturb* the
window, those events are pure bookkeeping: the protocol is closed-form,
so every image's exit time (and, for data-carrying collectives, its
result value) can be computed arithmetically and the whole window
replaced by a handful of wake events — one per distinct exit instant.
On node-symmetric teams the exit instants of different nodes coincide
exactly (identical float arithmetic), so a 1024-image TDLB barrier
collapses from thousands of engine events to roughly a dozen, and a
flat 10k-image allreduce from hundreds of thousands to one.

The hard requirement is **exactness**, not approximation: a macro-on run
must produce bit-identical simulated times, coarray states, collective
results, traffic counters, and resource grant counts as a macro-off run.
That drives the engagement rules:

Static eligibility (checked per arrival via :meth:`MacroCollectives.engages`)
  No monitor, no engine trace, no tiebreak RNG, no fault manager, no
  world-level trace log, ``config.macro_events`` on, and the collective
  spans the *full* image set (a sub-team window can interleave with
  images outside the team).  Data-carrying windows
  (:meth:`MacroCollectives.engages_data`) additionally require
  deterministic compute (``compute_jitter == 0`` — jitter draws
  per-image RNG streams in fine-grained resume order, which a replay
  cannot mirror).

Dynamic window check (pinned at the FIRST arrival of each invocation)
  The engine must be *globally quiet*: every pending event is one of the
  coordinator's own not-yet-fired wake events, and every machine
  resource (conduit progress engines, NICs, memory buses) is idle.  Any
  foreign in-flight work — an unfinished put, a straggler's timeout —
  pins this invocation to the fine-grained path.  The check is re-run at
  commit (last arrival), together with a resource *grant-counter*
  snapshot: if anything acquired a resource while the gather was open,
  the window is demoted.

Chained windows (sustained collapse)
  A committed window's pending wakes are pure deliveries: the replay
  released every resource, so nothing is held.  On **flat teams** (one
  image per node) every transfer also touches only its own image's
  sender-side NIC and conduit engine, so consecutive windows can never
  need the same resource out of order — a new barrier or reduction
  window may therefore open and commit *under* the previous window's
  still-pending wakes, with staggered arrivals.  This is what lets a
  back-to-back 10k-image allreduce loop stay collapsed even though
  recursive doubling's fold/unfold staggers the exit instants of each
  iteration.  Hierarchical windows keep the strict fully-quiet rule: a
  still-delivering release ladder or fan-out occupies a shared bus
  *virtually*, which a fresh replay ledger cannot see.

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
operation — same ``_plan``/``inject_time``/``wire_time``/``compute``
calls, same max/add structure, same combine order (deposit order at
each leader, MPICH fold/exchange order among leaders), per-resource
FIFO orderings — so the floats and values produced are the very floats
the event path would have produced (floating-point addition is
deterministic; the replay never re-associates it).

Round-synchronous leader phases (TDLB's dissemination, recursive
doubling's fold/exchange/unfold) replay one *round* at a time as NumPy
sweeps over the leaders.  Leaders sit on pairwise distinct nodes, so a
round holds each leader's NIC (and conduit progress engine) exactly
once and the per-resource FIFO order within a round is moot; elementwise
``np.maximum``/``+`` on float64 are the same IEEE operations the scalar
ledger performs.  Built-in reductions over same-shape ndarray payloads
combine a whole round as ``ufunc(own, partner)`` over a stacked array.
See ``docs/simulation.md`` for the full argument.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..calibration import DIRECT_SMP
from ..sim import SimEvent, Wait
from .base import NOTIFY_NBYTES, binomial_peers, combine_flops, payload_nbytes
from .reduce import REDUCE_OPS, _combine, _freeze

__all__ = ["MacroCollectives", "Replayed"]

#: data-carrying window kinds (the replay also produces result values)
DATA_KINDS = ("reduce-2l", "reduce-rd", "bcast-2l")

#: window kinds :meth:`MacroCollectives.join` knows how to replay
REPLAYABLE = ("tdlb", "linear") + DATA_KINDS


class Replayed:
    """Truthy wrapper a data-carrying wake delivers its result in.

    ``join`` returning a :class:`Replayed` means "the window was replayed
    — here is your collective's return value"; returning ``False`` means
    "run the fine-grained algorithm".  Barrier call sites only test
    truthiness; reduce/broadcast call sites unwrap ``.value``.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value

    def __bool__(self) -> bool:
        return True


class _Gather:
    """One open collective invocation: who has arrived, in which mode."""

    __slots__ = ("mode", "arrivals", "events", "payloads", "meta", "passed")

    def __init__(self, mode: str):
        self.mode = mode  # "macro" | "fine"
        #: (arrival time, team index) in registration order (macro mode)
        self.arrivals: List[Tuple[float, int]] = []
        #: each registrant's private wake event, same order as arrivals
        self.events: List[SimEvent] = []
        #: each registrant's frozen contribution, same order as arrivals
        #: (None for barriers)
        self.payloads: List[Any] = []
        #: window-wide parameters (op, source image) from the first arrival
        self.meta: Dict[str, Any] = {}
        #: members seen so far (fine mode — pure pass-through bookkeeping)
        self.passed = 0


class _ReplayState:
    """Per-commit FIFO ledger of virtual resource holds.

    ``hold`` mirrors :meth:`repro.sim.Resource.hold` arithmetic for a
    request arriving at ``t``: granted at ``max(t, previous release)``,
    released ``duration`` later.  Requests must be fed in fine-grained
    arrival order per resource; the engagement guard guarantees every
    resource starts the window idle, so the ledger starts empty.
    ``grants`` counts every grant the replay mirrors, scalar or swept.
    """

    __slots__ = ("free", "grants")

    def __init__(self):
        self.free: Dict[object, float] = {}
        self.grants = 0

    def hold(self, resource, t: float, duration: float) -> float:
        granted = self.free.get(resource, t)
        if t > granted:
            granted = t
        end = granted + duration
        self.free[resource] = end
        resource._granted += 1  # mirror the grant statistics
        self.grants += 1
        return end


class _LeaderRing:
    """Per-team constants of the leader rounds, built once per team.

    Slot ``i`` is the team's ``i``-th node leader (``hierarchy.leaders``
    order).  Leaders own pairwise distinct nodes, so every message
    between two of them takes the remote path and slot ``i``'s sends
    hold only node ``i``'s NIC and conduit progress engine.
    """

    def __init__(self, world, shared):
        h = shared.hierarchy
        members = shared.members
        self.leaders: List[int] = list(h.leaders)
        self.slaves: List[List[int]] = [h.slaves_of(L) for L in self.leaders]
        placements = world.conduit._placements
        nodes = [placements[members[L - 1]].node for L in self.leaders]
        nics = world.machine.interconnect._nics
        engines = world.conduit._engines
        self.nics = [nics[node] for node in nodes]
        self.engines = [engines[node] for node in nodes]
        self.size = k = len(self.leaders)
        self.slots = slots = np.arange(k)
        #: dissemination round r: slot j hears from slot (j - 2^r) mod k
        self.diss_sources = [
            (slots - (1 << r)) % k for r in range(math.ceil(math.log2(k)))
        ] if k > 1 else []
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


class _RoundLedger:
    """Vector twin of :class:`_ReplayState` for one window's leader
    rounds: one NIC and one progress-engine ledger slot per leader.

    :meth:`send` issues one remote message from each selected slot.  A
    round touches each slot at most once, so the per-resource FIFO order
    within it is irrelevant; ``np.maximum(free, t) + duration`` is the
    scalar ``hold`` arithmetic elementwise.
    """

    def __init__(self, world, ring: _LeaderRing):
        profile = world.conduit.profile
        self.world = world
        self.ring = ring
        self.net = world.machine.spec.network
        self.overhead = profile.remote_overhead
        k = ring.size
        self.nic = np.full(k, -np.inf)
        self.engine = (
            np.full(k, -np.inf)
            if self.overhead > 0.0 and profile.serialize_overhead else None
        )
        self.sent = np.zeros(k, dtype=np.int64)
        self.bytes = 0
        self._times: Dict[int, Tuple[float, float]] = {}

    def _cost(self, nbytes: int) -> Tuple[float, float]:
        cost = self._times.get(nbytes)
        if cost is None:
            net = self.net
            cost = self._times[nbytes] = (
                net.inject_time(nbytes), net.wire_time(nbytes)
            )
        return cost

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
        if self.overhead > 0.0:
            if self.engine is not None:
                t = np.maximum(self.engine[slots], t) + self.overhead
                self.engine[slots] = t
            else:
                t = t + self.overhead
        t = np.maximum(self.nic[slots], t) + inject
        self.nic[slots] = t
        self.sent[slots] += 1
        return t, t + wire

    def flush(self, st: _ReplayState) -> None:
        """Apply the swept messages to the conduit, interconnect and
        resource grant counters (and to ``st.grants``)."""
        messages = int(self.sent.sum())
        world = self.world
        world.conduit.counts["remote"] += messages
        ic = world.machine.interconnect
        ic.messages += messages
        ic.bytes += self.bytes
        held = [self.ring.nics]
        if self.engine is not None:
            held.append(self.ring.engines)
        sent = self.sent.tolist()
        for resources in held:
            for resource, count in zip(resources, sent):
                resource._granted += count
        st.grants += messages * len(held)


def _stack(op, vals: list) -> Optional[np.ndarray]:
    """``vals`` stacked into one array when a round's combine can run as
    a single ufunc call: a built-in op over plain ndarrays of one shape
    and one native numeric dtype (so the ufunc result keeps that dtype,
    exactly as the per-pair combine does).  None otherwise."""
    if not isinstance(op, str) or op not in REDUCE_OPS:
        return None
    first = vals[0]
    if type(first) is not np.ndarray or first.ndim == 0:
        return None
    dtype = first.dtype
    if dtype.kind not in "biufc" or not dtype.isnative:
        return None
    shape = first.shape
    for v in vals:
        if type(v) is not np.ndarray or v.shape != shape or v.dtype != dtype:
            return None
    return np.stack(vals)


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
    reduction, flat recursive-doubling reduction (on flat teams), and
    two-level broadcast — the full window including payload movement,
    combine compute, and the result values themselves.
    """

    def __init__(self, world):
        self.world = world
        self._gathers: Dict[tuple, _Gather] = {}
        #: wake events scheduled but not yet fired — the only pending
        #: engine events a quiet window is allowed to contain
        self._pending_wakes = 0
        #: grant-counter snapshot taken when the open gather was pinned
        self._grant_mark = 0
        #: None while live; "async" / "contention" / "stagger" once
        #: permanently off ("overlap" is set by the post-commit audit)
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
        #: everything committed has fully delivered.  On flat teams a new
        #: window may commit *under* a previous window's wakes, so more
        #: than one can be in flight; a later commit's own replay grants
        #: are folded into every earlier window's expectation so the
        #: audit only trips on genuinely foreign traffic.
        self._active_windows: List[list] = []
        self._resources: Optional[list] = None
        #: team uid → its :class:`_LeaderRing`
        self._rings: Dict[int, _LeaderRing] = {}
        self._hook_installed = False

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------
    def engages(self, view) -> bool:
        """Static screen, checked by each barrier wrapper before joining."""
        if self.disabled_reason is not None:
            return False
        world = self.world
        if not world.config.macro_events:
            return False
        engine = world.engine
        if (
            engine.monitor is not None
            or engine._trace is not None
            or engine._tiebreak_rng is not None
        ):
            return False
        if world.faults is not None or world.trace is not None:
            return False
        if view.size <= 1 or view.size != world.num_images:
            return False
        return True

    def engages_data(self, view) -> bool:
        """Static screen for data-carrying windows (reduce/broadcast):
        everything :meth:`engages` demands, plus deterministic compute —
        ``compute_jitter`` draws a per-image RNG stream on every
        ``compute_cost``, in fine-grained resume order, which an
        analytic replay cannot mirror."""
        if not self.engages(view):
            return False
        return self.world.config.compute_jitter <= 0.0

    def _all_resources(self) -> list:
        res = self._resources
        if res is None:
            world = self.world
            res = list(world.conduit._engines)
            res.extend(world.machine.interconnect._nics)
            for node_buses in world.machine.shared_memory._buses:
                res.extend(node_buses)
            self._resources = res
        return res

    def _total_grants(self) -> int:
        return sum(r._granted for r in self._all_resources())

    def _ring(self, shared) -> _LeaderRing:
        ring = self._rings.get(shared.uid)
        if ring is None:
            ring = self._rings[shared.uid] = _LeaderRing(self.world, shared)
        return ring

    def _window_clear(self, view, allow_overlap: bool) -> bool:
        """The dynamic quiet-window test, taken at first arrival.

        The engine must be quiet up to this coordinator's own pending
        wakes: every pending event is a not-yet-fired macro wake, and
        every fabric resource is idle.  Pending wakes are pure virtual
        deliveries — the replay that scheduled them released every
        resource — so a *new* window may open under them, but only when
        ``allow_overlap`` and the team is flat (one image per node).  On
        a flat team every transfer touches only its own image's
        sender-side NIC/conduit engine, so the previous window's virtual
        timeline and this window's replay can never need the same
        resource out of order.  On hierarchical teams a still-delivering
        release ladder or fan-out holds a shared bus virtually past the
        early exits, which a fresh replay ledger cannot see — so any
        pending wake pins the invocation fine, exactly as before.
        """
        if self._pending_wakes != 0:
            if not allow_overlap:
                return False
            if len(view.shared.hierarchy.leaders) != view.size:
                return False
        if self.world.engine.pending_events != self._pending_wakes:
            return False
        return all(r.idle for r in self._all_resources())

    def _commit_clear(self) -> bool:
        """Re-check at last arrival: still quiet, and nothing acquired a
        resource while the gather was open.  Wakes pending here can only
        belong to a previous window this gather was allowed to open
        under (their firing is what delivered the later arrivals)."""
        if self.world.engine.pending_events != self._pending_wakes:
            return False
        return self._total_grants() == self._grant_mark

    # ------------------------------------------------------------------
    # Sticky disables and demotion
    # ------------------------------------------------------------------
    def note_async(self) -> None:
        """Asynchronous traffic exists: disable for the run, demote any
        open gather (called by the conduit on every ``transfer_nb``)."""
        if self.disabled_reason is None:
            self.disabled_reason = "async"
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
            if g.events:
                # Parked registrants resume *now*, later than their
                # fine-grained arrival instants — times have drifted.
                progressed = True
                self.inexact = True
            for ev in g.events:  # arrival order
                ev.trigger(False)
        return progressed

    def _ensure_hook(self) -> None:
        if not self._hook_installed:
            self._hook_installed = True
            self.world.engine.add_drain_hook(self.on_drain)

    # ------------------------------------------------------------------
    # The gather protocol
    # ------------------------------------------------------------------
    def join(self, ctx, view, kind: str, seq, path: str = "auto",
             payload: Any = None, op: Any = None,
             source: Optional[int] = None) -> Iterator:
        """Offer this collective invocation to the macro coordinator.

        Generator driven by the arriving image's process.  ``seq`` is the
        invocation's identity within the team — the barrier sequence
        number or the data collective's already-drawn op tag.  Returns a
        truthy value (via ``yield from``) when the window was replayed —
        the collective is complete, and for data kinds the result rides
        in ``Replayed.value``.  Returns False when the invocation runs
        fine-grained (pinned, demoted, or ineligible); the caller falls
        through to the ordinary algorithm with the same ``seq``/tag it
        already drew.
        """
        if kind not in REPLAYABLE:
            return False
        if kind == "reduce-rd" and len(view.shared.hierarchy.leaders) != view.size:
            # Flat recursive doubling pairs arbitrary images; only when
            # every image owns its node are the exchange's fabric
            # resources pairwise disjoint, which frees the replay from
            # same-node bus-grant ordering it cannot predict.
            return False
        key = (view.shared.uid, kind, seq)
        g = self._gathers.get(key)
        if g is None:
            # Broadcast windows must never open under a previous
            # window's wakes: overlapped windows have staggered
            # arrivals, which a broadcast cannot commit (below), and
            # demoting parked registrants would break exactness.
            if self._window_clear(view, allow_overlap=kind != "bcast-2l"):
                g = _Gather("macro")
                g.meta = {"op": op, "source": source}
                self._ensure_hook()
                self._grant_mark = self._total_grants()
            else:
                g = _Gather("fine")
                self.fine_pins += 1
            self._gathers[key] = g
        if g.mode != "macro":
            g.passed += 1
            if g.passed >= view.size:
                self._gathers.pop(key, None)
            return False

        engine = self.world.engine
        ev = SimEvent(engine, name=f"macro:{kind}[{seq}]@{view.index}")
        g.arrivals.append((engine.now, view.index))
        g.events.append(ev)
        g.payloads.append(_freeze(payload))
        if len(g.events) == view.size:
            self._gathers.pop(key, None)
            # Broadcast windows require every arrival on the commit
            # instant: fine-grained, an early subtree finishes before a
            # late member arrives, so exits can precede the commit —
            # impossible to schedule, and the parked member resumed
            # late.  Reduce/barrier exits all depend on the last
            # arrival, so staggered windows commit exactly.
            stagger = kind == "bcast-2l" and any(
                t != engine.now for t, _ in g.arrivals
            )
            if not stagger and self._commit_clear():
                self._commit(view, kind, path, g)
                # fall through: the last arriver waits on its own wake
            else:
                # The window was perturbed after registration — too late
                # for exact fine-grained timing, so never engage again.
                self.disabled_reason = "stagger" if stagger else "contention"
                self.inexact = True
                self.demotions += 1
                for other in g.events[:-1]:  # arrival order
                    other.trigger(False)
                return False
        replayed = yield Wait(ev)
        return replayed

    # ------------------------------------------------------------------
    # Commit: replay + wake scheduling + state mirroring
    # ------------------------------------------------------------------
    def _commit(self, view, kind: str, path: str, g: _Gather) -> None:
        st = _ReplayState()
        results: Optional[Dict[int, Any]] = None
        if kind == "tdlb":
            exits = self._replay_tdlb(st, view, g.arrivals)
        elif kind == "linear":
            exits = self._replay_linear(st, view, g.arrivals, path)
        elif kind == "reduce-2l":
            exits, results = self._replay_reduce_two_level(st, view, g)
        elif kind == "reduce-rd":
            exits, results = self._replay_reduce_rd(st, view, g)
        else:  # "bcast-2l"
            exits, results = self._replay_bcast_two_level(st, view, g)
        self.replays += 1
        self.replays_by_kind[kind] = self.replays_by_kind.get(kind, 0) + 1

        waiter = {index: ev for (_, index), ev in zip(g.arrivals, g.events)}
        if results is None:
            wake: Dict[int, Any] = dict.fromkeys(waiter, True)
        else:
            wake = {index: Replayed(results[index]) for index in waiter}
        groups: Dict[float, List[int]] = {}
        for t, index in exits:
            groups.setdefault(t, []).append(index)
        engine = self.world.engine
        # The commit is a bet that no foreign resource request lands
        # inside the window's (now virtual) delivery span.  Track the
        # window until its last wake and audit the grant counters there:
        # a lost bet is marked inexact and disables macro-events for the
        # rest of the run (see the module doc's exactness contract).
        # A chained window committing under this one's wakes is *not*
        # foreign — its replay grants are exact by construction — so
        # fold this replay's grants into every still-delivering
        # window's expectation before recording our own.  The commit
        # check just confirmed the live total equals the first-arrival
        # mark, so the post-replay total is the mark plus what the
        # replay mirrored — no resource sweep needed.
        for earlier in self._active_windows:
            earlier[1] += st.grants
        window = [len(groups), self._grant_mark + st.grants]
        self._active_windows.append(window)
        for t in sorted(groups):
            pairs = [(waiter[i], wake[i]) for i in sorted(groups[t])]
            self._pending_wakes += 1

            def fire(pairs=pairs, window=window):
                self._pending_wakes -= 1
                window[0] -= 1
                if window[0] == 0:
                    self._active_windows.remove(window)
                    if (
                        self.disabled_reason is None
                        and self._total_grants() != window[1]
                    ):
                        self.inexact = True
                        self.disabled_reason = "overlap"
                for ev, val in pairs:
                    ev.trigger(val)

            engine.schedule_at(t, fire, label="macro-wake")
        self.wake_events += len(groups)

    # -- one costed transfer, mirroring Conduit.transfer exactly --------
    def _replay_transfer(self, st: _ReplayState, src_proc: int,
                         dst_proc: int, nbytes: int, t: float,
                         path: str) -> Tuple[float, float]:
        """Return ``(source_done, delivered)`` for one message whose
        sender is free to issue it at time ``t``."""
        world = self.world
        conduit = world.conduit
        machine = world.machine
        resolved = conduit.resolve_path(src_proc, dst_proc, path)
        conduit.counts[resolved] += 1
        placements = conduit._placements
        ps = placements[src_proc]
        profile = conduit.profile

        if resolved == "remote":
            cost = profile.remote_overhead
            if cost > 0.0:
                if profile.serialize_overhead:
                    t = st.hold(conduit._engines[ps.node], t, cost)
                else:
                    t = t + cost
            ic = machine.interconnect
            ic.messages += 1
            ic.bytes += nbytes
            net = machine.spec.network
            t = st.hold(ic._nics[ps.node], t, net.inject_time(nbytes))
            return t, t + net.wire_time(nbytes)

        pd = placements[dst_proc]
        sm = machine.shared_memory
        if resolved == "loopback":
            cost = profile.local_overhead
            if cost > 0.0:
                if profile.serialize_overhead:
                    t = st.hold(conduit._engines[ps.node], t, cost)
                else:
                    t = t + cost
            sm.messages += 1
            sm.bytes += nbytes
            occ, lat, home = sm._plan(
                ps.core, pd.core, nbytes, profile.loopback_bw_factor
            )
            t = st.hold(sm._buses[ps.node][home], t, occ)
            delivered = t + lat
            if profile.loopback_penalty > 0.0:
                delivered = delivered + profile.loopback_penalty
            return t, delivered

        # direct shared-memory store
        if DIRECT_SMP.local_overhead > 0.0:
            t = t + DIRECT_SMP.local_overhead
        sm.messages += 1
        sm.bytes += nbytes
        occ, lat, home = sm._plan(ps.core, pd.core, nbytes, 1.0)
        t = st.hold(sm._buses[ps.node][home], t, occ)
        return t, t + lat

    # -- a compute_cost Timeout's span, jitter-free ---------------------
    def _compute_delay(self, flops: float) -> float:
        """The exact delay ``ctx.compute_cost(flops)`` would charge —
        same ``machine.compute`` call, so the same float.  Data windows
        only engage with ``compute_jitter == 0``, so no noise factor."""
        world = self.world
        return world.machine.compute(
            flops, efficiency=world.config.compute_efficiency
        ).delay

    # -- Algorithm 1 (barrier_tdlb) -------------------------------------
    def _replay_tdlb(self, st: _ReplayState, view,
                     arrivals: List[Tuple[float, int]]) -> List[Tuple[float, int]]:
        shared = view.shared
        members = shared.members
        ring = self._ring(shared)
        arrive = {index: t for t, index in arrivals}
        order = {index: i for i, (_, index) in enumerate(arrivals)}

        # Step 1: slaves arrive at their node leader (direct stores).
        # Same-node requests contend on the leader-socket bus in the
        # order the engine would grant them: FIFO by (issue time,
        # registration order) — ties broken by who got to the bus first,
        # which on the fast path is registration (scheduling) order.
        ready: List[float] = []
        for leader, slaves in zip(ring.leaders, ring.slaves):
            latest = arrive[leader]
            if slaves:
                dst = members[leader - 1]
                for s in sorted(slaves, key=lambda i: (arrive[i], order[i])):
                    _, delivered = self._replay_transfer(
                        st, members[s - 1], dst, NOTIFY_NBYTES,
                        arrive[s], "direct",
                    )
                    if delivered > latest:
                        latest = delivered
                shared.cocounter(leader).add(len(slaves))
            ready.append(latest)

        # Step 2: one-wait dissemination among the node leaders, one
        # vector sweep per round.  Every window notifies every
        # (leader, round) flag once, so the flags are credited in O(1).
        if ring.diss_sources:
            rounds = _RoundLedger(self.world, ring)
            t = np.array(ready)
            for sources in ring.diss_sources:
                done, delivered = rounds.send(ring.slots, t, NOTIFY_NBYTES)
                t = np.maximum(done, delivered[sources])
            rounds.flush(st)
            shared.credit_diss("tdlb-leaders")
            ready = t.tolist()

        # Step 3: each leader releases its intranode set serially.
        exits: List[Tuple[float, int]] = []
        for leader, slaves, t in zip(ring.leaders, ring.slaves, ready):
            src = members[leader - 1]
            for s in slaves:  # algorithm order: sorted
                t, delivered = self._replay_transfer(
                    st, src, members[s - 1], NOTIFY_NBYTES, t, "direct",
                )
                shared.release_flag(s).add(1)
                exits.append((delivered, s))
            exits.append((t, leader))
        return exits

    # -- barrier_linear -------------------------------------------------
    def _replay_linear(self, st: _ReplayState, view,
                       arrivals: List[Tuple[float, int]],
                       path: str) -> List[Tuple[float, int]]:
        shared = view.shared
        members = shared.members
        n = view.size
        leader = 1
        root = members[leader - 1]
        arrive = {index: t for t, index in arrivals}
        order = {index: i for i, (_, index) in enumerate(arrivals)}

        latest = arrive[leader]
        slaves = [i for i in range(1, n + 1) if i != leader]
        for s in sorted(slaves, key=lambda i: (arrive[i], order[i])):
            _, delivered = self._replay_transfer(
                st, members[s - 1], root, NOTIFY_NBYTES, arrive[s], path,
            )
            if delivered > latest:
                latest = delivered
        shared.cocounter(leader).add(n - 1)

        exits: List[Tuple[float, int]] = []
        t = latest
        for s in range(2, n + 1):  # algorithm order: ascending index
            t, delivered = self._replay_transfer(
                st, root, members[s - 1], NOTIFY_NBYTES, t, path,
            )
            shared.release_flag(s).add(1)
            exits.append((delivered, s))
        exits.append((t, leader))
        return exits

    # -- reduce._recursive_doubling among the node leaders ---------------
    def _replay_rd(self, st: _ReplayState, ring: _LeaderRing,
                   ready: List[float], vals: list,
                   op) -> Tuple[List[float], list]:
        """Replay the MPICH fold/exchange/unfold allreduce among the
        ring's leaders, one vector sweep per round.

        ``ready``/``vals`` give, per leader slot, the time it enters the
        exchange and its accumulator; returns the post-exchange pair.
        Each round's senders sit on pairwise-distinct nodes, so only
        per-sender serialization (the per-slot ledger) matters.
        """
        k = ring.size
        if k <= 1:
            return ready, vals
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

        rounds = _RoundLedger(self.world, ring)
        t = np.array(ready)
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
        rounds.flush(st)
        return t.tolist(), list(work)

    # -- allreduce_two_level --------------------------------------------
    def _replay_reduce_two_level(
        self, st: _ReplayState, view, g: _Gather
    ) -> Tuple[List[Tuple[float, int]], Dict[int, Any]]:
        shared = view.shared
        members = shared.members
        ring = self._ring(shared)
        arrive = {index: t for t, index in g.arrivals}
        order = {index: i for i, (_, index) in enumerate(g.arrivals)}
        base = {index: v for (_, index), v in zip(g.arrivals, g.payloads)}
        op = g.meta["op"]

        # Intranode gather: slave contributions reach the leader's socket
        # bus in fine-grained grant order — FIFO by (issue time,
        # registration order), same rule as the TDLB replay — and the
        # leader folds them in deposit (= delivery) order after the last
        # one lands, then pays one combine timeout for the batch.
        ready: List[float] = []
        vals: list = []
        for leader, slaves in zip(ring.leaders, ring.slaves):
            t = arrive[leader]
            acc = base[leader]
            if slaves:
                dst = members[leader - 1]
                deposits: List[Tuple[float, int]] = []
                for s in sorted(slaves, key=lambda i: (arrive[i], order[i])):
                    _, delivered = self._replay_transfer(
                        st, members[s - 1], dst, payload_nbytes(base[s]),
                        arrive[s], "direct",
                    )
                    deposits.append((delivered, s))
                    if delivered > t:
                        t = delivered
                # The leader folds in deposit (= delivery) order; with
                # staggered arrivals on a multi-bus node that can differ
                # from bus-request order.  Stable sort: same-instant
                # deliveries fire in scheduling (= request) order.
                deposits.sort(key=lambda d: d[0])
                for _, s in deposits:
                    acc = _combine(op, acc, base[s])
                t = t + self._compute_delay(
                    combine_flops(base[leader]) * len(slaves)
                )
            ready.append(t)
            vals.append(acc)

        # Internode: recursive doubling among the node leaders.
        ready, vals = self._replay_rd(st, ring, ready, vals, op)

        # Intranode fan-out: each leader pushes the result serially.
        exits: List[Tuple[float, int]] = []
        results: Dict[int, Any] = {}
        for leader, slaves, t, acc in zip(ring.leaders, ring.slaves,
                                          ready, vals):
            src = members[leader - 1]
            for s in slaves:
                t, delivered = self._replay_transfer(
                    st, src, members[s - 1], payload_nbytes(acc), t,
                    "direct",
                )
                exits.append((delivered, s))
                results[s] = _freeze(acc)
            exits.append((t, leader))
            results[leader] = acc
        return exits, results

    # -- allreduce_recursive_doubling -----------------------------------
    def _replay_reduce_rd(
        self, st: _ReplayState, view, g: _Gather
    ) -> Tuple[List[Tuple[float, int]], Dict[int, Any]]:
        # join() admits this kind on flat teams only, where the leaders
        # are exactly the images 1..n in rank order.
        ring = self._ring(view.shared)
        arrive = {index: t for t, index in g.arrivals}
        base = {index: v for (_, index), v in zip(g.arrivals, g.payloads)}
        ready, vals = self._replay_rd(
            st, ring, [arrive[p] for p in ring.leaders],
            [base[p] for p in ring.leaders], g.meta["op"],
        )
        return list(zip(ready, ring.leaders)), dict(zip(ring.leaders, vals))

    # -- bcast_two_level ------------------------------------------------
    def _replay_bcast_two_level(
        self, st: _ReplayState, view, g: _Gather
    ) -> Tuple[List[Tuple[float, int]], Dict[int, Any]]:
        shared = view.shared
        h = shared.hierarchy
        members = shared.members
        arrive = {index: t for t, index in g.arrivals}
        base = {index: v for (_, index), v in zip(g.arrivals, g.payloads)}
        source = g.meta["source"]
        leaders = h.leaders
        source_leader = h.leader_of[source]
        seed = base[source]
        nbytes = payload_nbytes(seed)
        exits: List[Tuple[float, int]] = []
        results: Dict[int, Any] = {}

        # Phase 0: a non-leader source hands the payload to its leader
        # over shared memory, then is done (it already holds the value).
        if source != source_leader:
            done, delivered = self._replay_transfer(
                st, members[source - 1], members[source_leader - 1], nbytes,
                arrive[source], "direct",
            )
            exits.append((done, source))
            results[source] = _freeze(seed)
            root_t = arrive[source_leader]
            if delivered > root_t:
                root_t = delivered
        else:
            root_t = arrive[source]

        # Phase 1: binomial tree among leaders rooted at the source's
        # leader.  Parents always carry a smaller virtual rank, so
        # walking leaders in vrank order replays sends before receives.
        # Tree levels are not rounds (a parent's sends serialize and its
        # children start at different instants), so this phase stays on
        # the scalar ledger.
        num_leaders = len(leaders)
        root_rank = h.leader_rank[source_leader]
        vrank = {
            L: (h.leader_rank[L] - root_rank) % num_leaders for L in leaders
        }
        inbox: Dict[int, float] = {}
        hold_t: Dict[int, float] = {}
        for L in sorted(leaders, key=lambda L: vrank[L]):
            parent, children = binomial_peers(vrank[L], num_leaders)
            if parent is None:
                t = root_t
            else:
                t = arrive[L]
                if inbox[L] > t:
                    t = inbox[L]
            src = members[L - 1]
            for child in children:  # largest stride first, serial sends
                target = leaders[(child + root_rank) % num_leaders]
                t, delivered = self._replay_transfer(
                    st, src, members[target - 1], nbytes, t, "auto",
                )
                inbox[target] = delivered
            hold_t[L] = t

        # Phase 2: intranode fan-out with direct stores.
        for L in leaders:
            t = hold_t[L]
            src = members[L - 1]
            for s in h.slaves_of(L):
                if s == source:
                    continue  # the source already holds the payload
                t, delivered = self._replay_transfer(
                    st, src, members[s - 1], nbytes, t, "direct",
                )
                e = arrive[s]
                if delivered > e:
                    e = delivered
                exits.append((e, s))
                results[s] = _freeze(seed)
            exits.append((t, L))
            results[L] = _freeze(seed)
        return exits, results
