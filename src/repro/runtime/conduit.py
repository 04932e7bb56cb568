"""The conduit: per-message software costs on top of the machine fabrics.

A :class:`Conduit` pairs a :class:`~repro.calibration.ConduitProfile`
with a :class:`~repro.machine.Machine` and exposes the one primitive the
PGAS runtime is built from — a *costed one-sided transfer* between two
images.  Three paths exist:

``remote``
    Inter-node: software overhead at the sender, then NIC injection and
    the wire (see :mod:`repro.machine.network`).
``loopback``
    Same-node, but through the conduit anyway — the hierarchy-unaware
    path (GASNet ibv loopback).  Pays the full software overhead, the
    node's memory system, and an extra target-side polling penalty.
``direct``
    Same-node via plain stores — the hierarchy-aware path; near-zero
    software cost.

Profiles with ``serialize_overhead=True`` funnel their software overhead
through a per-node FIFO *progress engine* resource, so concurrent
operations issued by co-located images serialize.  This single mechanism
produces the paper's observed collapse of flat dissemination at 8 images
per node.

Placement is fixed at launch, so everything about a transfer except its
size is resolved once per ``(src, dst, path)`` into a :class:`Route`:
the path, the sender-overhead command, the delivery label, and a cost
table ``nbytes → (Hold(resource, occupancy), latency)`` filled from the
fabric's own formulas on first use of each size.  Cost tables are
shared by every route that holds the same resource with the same cost
shape.  The collectives' member plans hold routes, and the macro-event
replay prices its virtual transfers from the same routes, so both paths
charge the very same floats.

The conduit is also the run's one traffic meter: it counts each message
and its bytes by path once, when the message reaches its fabric (after
any link jitter and the sender's overhead), and :meth:`Conduit.traffic`
snapshots those counts.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..calibration import DIRECT_SMP, ConduitProfile
from ..machine import Machine, TrafficSnapshot
from ..sim import Hold, Resource, SimEvent, Timeout

__all__ = ["Conduit", "Route", "CostTable"]


def _nic_price(net, nbytes: int) -> Tuple[float, float]:
    """NIC occupancy and wire latency of a remote message."""
    return net.inject_time(nbytes), net.wire_time(nbytes)


def _bus_price(sm, src_core: int, dst_core: int, factor: float,
               nbytes: int) -> Tuple[float, float]:
    """Memory-controller occupancy and visibility latency of a store;
    any route with the same home socket, crossing and ``factor``
    prices identically, so one route's cores serve its whole table."""
    occupancy, latency, _home = sm._plan(src_core, dst_core, nbytes, factor)
    return occupancy, latency


class CostTable(dict):
    """``nbytes → (Hold(resource, occupancy), latency)`` for one fabric
    resource and one cost shape, priced on first use of each size.

    ``price(nbytes)`` returns ``(occupancy, latency)`` from the fabric's
    own formulas; the table only memoizes it.  A negative size raises
    here, before the transfer charges anything.
    """

    __slots__ = ("resource", "_price")

    def __init__(self, resource: Resource,
                 price: Callable[[int], Tuple[float, float]]):
        super().__init__()
        self.resource = resource
        self._price = price

    def __missing__(self, nbytes: int) -> Tuple[Hold, float]:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        occupancy, latency = self._price(nbytes)
        entry = self[nbytes] = (Hold(self.resource, occupancy), latency)
        return entry


class Route:
    """One resolved ``(src, dst, path)``: everything a transfer needs
    except its size.

    ``overhead`` is the sender's software-overhead command — a
    ``Hold`` on the node's progress engine, a ``Timeout``, or None when
    the path charges none.  ``label`` names its delivery event;
    ``penalty`` is the loopback target-poll delay (0 elsewhere).
    """

    __slots__ = ("src", "dst", "kind", "overhead", "label", "penalty",
                 "costs")

    def __init__(self, src: int, dst: int, kind: str, overhead,
                 label: str, penalty: float, costs: CostTable):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.overhead = overhead
        self.label = label
        self.penalty = penalty
        self.costs = costs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Route({self.src}->{self.dst}, {self.kind})"


class Conduit:
    """Costed one-sided transfers between images over a machine."""

    def __init__(
        self,
        machine: Machine,
        profile: ConduitProfile,
        hierarchy_aware: bool = False,
        faults=None,
    ):
        self.machine = machine
        self.profile = profile
        #: when True, same-node transfers default to the ``direct`` path
        self.hierarchy_aware = hierarchy_aware
        #: optional :class:`repro.faults.FaultManager` — decides message
        #: fates (delivery to dead images, drop/delay jitter) when a fault
        #: schedule is installed; None on the default path
        self.faults = faults
        self._engine = machine.engine
        self._schedule = machine.engine.schedule
        self._engines = [
            Resource(machine.engine, capacity=1, name=f"conduit{n}")
            for n in range(machine.spec.num_nodes)
        ]
        self._placements = [
            machine.topology.placement(i) for i in range(machine.num_images)
        ]
        # Routes and overhead commands are keyed without tuples: a run
        # keeps thousands of them, and tuple keys are garbage-collector
        # work that a flat int or float key is not.
        #: path → {src * num_images + dst: Route}
        self._routes: Dict[str, Dict[int, Route]] = {
            path: {} for path in ("auto", "remote", "loopback", "direct")
        }
        #: NIC, or (bus, crossing, bandwidth factor) → its shared CostTable
        self._tables: Dict[object, CostTable] = {}
        #: cost → per-node sender-overhead commands
        self._overheads: Dict[float, list] = {}
        self._nic_price = partial(_nic_price, machine.spec.network)
        #: lifetime message and byte counters by path, bumped when a
        #: message reaches its fabric (see :meth:`traffic`)
        self.counts = {"remote": 0, "loopback": 0, "direct": 0}
        self.bytes = {"remote": 0, "loopback": 0, "direct": 0}
        #: back-reference to :class:`repro.collectives.macro.MacroCollectives`
        #: (set by the World that owns this conduit); None when the run has
        #: no macro-event coordinator
        self.macro = None

    def note_async(self) -> None:
        """Record that asynchronous traffic exists in this run.

        Non-blocking transfers complete through callback chains the
        macro-event eligibility sweep cannot see (a ``get_nb`` response
        leg, an event-relay hop), so the first one permanently pins every
        subsequent barrier window to the fine-grained path.
        """
        macro = self.macro
        if macro is not None:
            macro.note_async()

    def progress_engine(self, node: int) -> Resource:
        return self._engines[node]

    def traffic(self) -> TrafficSnapshot:
        """The messages and bytes counted so far: inter-node is the
        ``remote`` path, intra-node ``loopback`` plus ``direct``.  A
        message still in its sender's jitter or overhead is not in it."""
        counts, nbytes = self.counts, self.bytes
        return TrafficSnapshot(
            inter_messages=counts["remote"],
            inter_bytes=nbytes["remote"],
            intra_messages=counts["loopback"] + counts["direct"],
            intra_bytes=nbytes["loopback"] + nbytes["direct"],
        )

    def monitored_delivery(
        self,
        src_image: int,
        dst_image: int,
        on_delivered: Optional[Callable[[], None]],
    ) -> Optional[Callable[[], None]]:
        """Tell the concurrency monitor (when installed) about this message
        and wrap the delivery callback so target-side effects are
        attributed to the sender's causal past."""
        monitor = self._engine.monitor
        if monitor is None:
            return on_delivered
        return monitor.on_transfer(src_image, dst_image, on_delivered)

    # ------------------------------------------------------------------
    # Resolution (once per (src, dst, path))
    # ------------------------------------------------------------------
    def resolve_path(self, src_image: int, dst_image: int, path: str = "auto") -> str:
        """Decide which of remote/loopback/direct a transfer takes.

        ``auto`` consults placement and :attr:`hierarchy_aware` — the
        runtime-level decision the paper's two-level methodology adds.
        Forcing ``direct`` for a cross-node pair is rejected: stores do not
        cross the network.
        """
        placements = self._placements
        same = placements[src_image].node == placements[dst_image].node
        if path == "auto":
            if not same:
                return "remote"
            return "direct" if self.hierarchy_aware else "loopback"
        if path == "direct" and not same:
            raise ValueError(
                f"direct path requested between images {src_image} and "
                f"{dst_image} on different nodes"
            )
        if path == "loopback" and not same:
            # Symmetric to the direct case: loopback is the *same-node*
            # conduit path; letting it through would route cross-node
            # traffic through the source node's shared-memory model.
            raise ValueError(
                f"loopback path requested between images {src_image} and "
                f"{dst_image} on different nodes"
            )
        if path == "remote" and same:
            # Same-node through the conduit is by definition the loopback path.
            return "loopback"
        if path not in ("remote", "loopback", "direct"):
            raise ValueError(f"unknown path {path!r}")
        return path

    def route(self, src_image: int, dst_image: int, path: str = "auto") -> Route:
        """The cached :class:`Route` for ``(src_image, dst_image, path)``;
        resolving it raises exactly as :meth:`resolve_path` does."""
        routes = self._routes.get(path)
        if routes is None:  # not a path name: resolving raises
            return self._resolve(src_image, dst_image, path)
        key = src_image * len(self._placements) + dst_image
        route = routes.get(key)
        if route is None:
            route = routes[key] = self._resolve(src_image, dst_image, path)
        return route

    def _overhead(self, node: int, cost: float):
        """Sender software time: serialized per node if the profile says
        so.  One command per node and cost, shared by its routes."""
        if cost <= 0.0:
            return None
        commands = self._overheads.get(cost)
        if commands is None:
            commands = self._overheads[cost] = [None] * len(self._engines)
        command = commands[node]
        if command is None:
            command = commands[node] = (
                Hold(self._engines[node], cost)
                if self.profile.serialize_overhead else Timeout(cost)
            )
        return command

    def _resolve(self, src_image: int, dst_image: int, path: str) -> Route:
        kind = self.resolve_path(src_image, dst_image, path)
        ps = self._placements[src_image]
        pd = self._placements[dst_image]
        profile = self.profile
        machine = self.machine
        tables = self._tables
        if kind == "remote":
            nic = machine.interconnect.nic(ps.node)
            costs = tables.get(nic)
            if costs is None:
                costs = tables[nic] = CostTable(nic, self._nic_price)
            return Route(
                src_image, dst_image, kind,
                self._overhead(ps.node, profile.remote_overhead),
                f"wire{ps.node}->{pd.node}", 0.0, costs,
            )
        if kind == "loopback":
            overhead = self._overhead(ps.node, profile.local_overhead)
            penalty = profile.loopback_penalty
            factor = profile.loopback_bw_factor
        else:  # direct
            local = DIRECT_SMP.local_overhead
            overhead = Timeout(local) if local > 0.0 else None
            penalty = 0.0
            factor = 1.0
        sm = machine.shared_memory
        node = machine.spec.node
        home = node.socket_of(pd.core)
        bus = sm.bus(ps.node, home)
        key = (bus, node.socket_of(ps.core) != home, factor)
        costs = tables.get(key)
        if costs is None:
            costs = tables[key] = CostTable(
                bus, partial(_bus_price, sm, ps.core, pd.core, factor)
            )
        return Route(
            src_image, dst_image, kind, overhead,
            f"smp{ps.node}:{ps.core}->{pd.core}", penalty, costs,
        )

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def transfer(
        self,
        src_image: int,
        dst_image: int,
        nbytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
        path: str = "auto",
    ) -> Iterator:
        """Generator performing one costed one-sided transfer.

        The sending process blocks through source-side completion;
        ``on_delivered`` fires when the payload is visible at the target.
        """
        return self.send(self.route(src_image, dst_image, path), nbytes,
                         on_delivered)

    def send(
        self,
        route: Route,
        nbytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
    ) -> Iterator:
        """:meth:`transfer` over an already resolved ``route``: the
        sender-overhead command, then the fabric hold, then delivery one
        fabric latency (plus the loopback poll) later.  The message is
        counted when it reaches the fabric hold."""
        hold, latency = route.costs[nbytes]
        faults = self.faults
        if faults is not None:
            # A message to a dead image still pays wire costs (the sender
            # cannot tell), but its target-side effects are suppressed.
            on_delivered = faults.filter_delivery(route.dst, on_delivered)
            jitter = faults.link_delay(route.kind)
            if jitter > 0.0:
                yield Timeout(jitter)
        monitor = self._engine.monitor
        if monitor is not None:
            on_delivered = monitor.on_transfer(route.src, route.dst, on_delivered)
        overhead = route.overhead
        if overhead is not None:
            yield overhead
        kind = route.kind
        self.counts[kind] += 1
        self.bytes[kind] += nbytes
        yield hold
        if on_delivered is not None:
            if route.penalty > 0.0:
                # delivery waits for the target's poll
                on_delivered = partial(self._schedule, route.penalty,
                                       on_delivered, "loopback-poll")
            self._schedule(latency, on_delivered, route.label)

    def transfer_nb(
        self,
        src_image: int,
        dst_image: int,
        nbytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
        path: str = "auto",
    ) -> Iterator:
        """Non-blocking variant: the sending process blocks only through
        its software overhead (posting the work request); injection and
        the wire proceed asynchronously.

        Generator whose return value (via ``yield from``) is a
        :class:`~repro.sim.SimEvent` that fires at *source-side*
        completion (the source buffer is reusable); ``on_delivered``
        fires when the payload lands at the target.  A rejected path or
        size raises before the run is marked asynchronous.
        """
        route = self.route(src_image, dst_image, path)
        hold, latency = route.costs[nbytes]
        self.note_async()
        faults = self.faults
        if faults is not None:
            on_delivered = faults.filter_delivery(route.dst, on_delivered)
            jitter = faults.link_delay(route.kind)
            if jitter > 0.0:
                yield Timeout(jitter)
        on_delivered = self.monitored_delivery(route.src, route.dst, on_delivered)
        if route.overhead is not None:
            yield route.overhead
        return self._launch(route, nbytes, hold, latency, on_delivered)

    def forward(self, route: Route, nbytes: int,
                on_delivered: Optional[Callable[[], None]]) -> SimEvent:
        """The fabric leg of a transfer issued from a delivery callback,
        where no sender process can block on an overhead (an event
        post's leader relay, a ``get_nb`` response); the returned event
        fires when the fabric hold retires."""
        hold, latency = route.costs[nbytes]
        return self._launch(route, nbytes, hold, latency, on_delivered)

    def _launch(self, route: Route, nbytes: int, hold: Hold, latency: float,
                on_delivered: Optional[Callable[[], None]]) -> SimEvent:
        kind = route.kind
        self.counts[kind] += 1
        self.bytes[kind] += nbytes
        then = None
        if on_delivered is not None:
            if route.penalty > 0.0:
                on_delivered = partial(self._schedule, route.penalty,
                                       on_delivered, "loopback-poll")
            then = partial(self._schedule, latency, on_delivered, route.label)
        return hold.resource.occupy(hold.duration, then=then)
