"""The :class:`Machine` facade: the hardware one simulated run executes on.

A Machine binds a :class:`~repro.machine.spec.MachineSpec`, an image
:class:`~repro.machine.topology.Topology`, and the two fabrics
(:class:`~repro.machine.network.Interconnect` and
:class:`~repro.machine.memnode.SharedMemory`) to a simulation engine.  It
answers placement queries and prices compute; it moves no data itself.
Every message goes through a :class:`~repro.runtime.conduit.Conduit`
route, which also counts it, and the path choice (a NIC
transaction or a cache-coherence transaction) lives in
``Conduit.resolve_path``.  That choice is the knowledge a
memory-hierarchy-aware runtime has and a flat runtime ignores — the
entire paper in one dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..sim import Engine, Timeout, collector_paused
from .memnode import SharedMemory
from .network import Interconnect
from .spec import MachineSpec
from .topology import Placement, Topology, block_placement

__all__ = ["Machine", "TrafficSnapshot", "build_machine"]


@dataclass(frozen=True)
class TrafficSnapshot:
    """Cumulative inter- and intra-node message and byte counts at one
    instant (see :meth:`repro.runtime.conduit.Conduit.traffic`); subtract
    two snapshots to get per-phase traffic (used by the
    notification-count experiments)."""

    inter_messages: int
    inter_bytes: int
    intra_messages: int
    intra_bytes: int

    def __sub__(self, other: "TrafficSnapshot") -> "TrafficSnapshot":
        return TrafficSnapshot(
            self.inter_messages - other.inter_messages,
            self.inter_bytes - other.inter_bytes,
            self.intra_messages - other.intra_messages,
            self.intra_bytes - other.intra_bytes,
        )

    @property
    def total_messages(self) -> int:
        return self.inter_messages + self.intra_messages


class Machine:
    """Placement queries and compute costs over the two fabrics."""

    def __init__(self, engine: Engine, topology: Topology):
        self.engine = engine
        self.topology = topology
        self.spec: MachineSpec = topology.spec
        self.interconnect = Interconnect(engine, self.spec)
        self.shared_memory = SharedMemory(engine, self.spec)

    # ------------------------------------------------------------------
    # Placement queries (delegated; runtime code reads these constantly)
    # ------------------------------------------------------------------
    @property
    def num_images(self) -> int:
        return self.topology.num_images

    def node_of(self, image: int) -> int:
        return self.topology.node_of(image)

    def same_node(self, a: int, b: int) -> bool:
        return self.topology.same_node(a, b)

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def compute(self, flops: float, efficiency: float = 1.0) -> Timeout:
        """A :class:`Timeout` charging ``flops`` of work on one core.

        ``efficiency`` scales the core's peak rate; backends with poorer
        generated code (the paper's GFortran backend) pass a smaller value.
        """
        if flops < 0:
            raise ValueError(f"flops must be >= 0, got {flops}")
        if not 0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        rate = self.spec.node.core_flops * efficiency
        return Timeout(flops / rate)


def build_machine(
    engine: Engine,
    spec: MachineSpec,
    num_images: int,
    images_per_node: Optional[int] = None,
    placements: Optional[Sequence[Placement]] = None,
) -> Machine:
    """Convenience constructor used throughout benchmarks and tests.

    Either pass explicit ``placements`` or an ``images_per_node`` for block
    placement (default: pack a node full before starting the next — the
    paper's ``N(M)`` notation with M nodes means ``images_per_node = N/M``).

    The cyclic garbage collector is paused while the topology and the
    fabrics are built (:func:`repro.sim.collector_paused`).  They are
    long-lived objects, several per image and per node, and every
    collection their allocation would trigger walks them to free
    nothing: at 100,000 nodes that is about a third of the build.  The
    caller's collector state comes back on return.
    """
    with collector_paused():
        if placements is None:
            if images_per_node is None:
                images_per_node = spec.node.cores
            placements = block_placement(num_images, images_per_node)
        topo = Topology(spec, placements)
        return Machine(engine, topo)
