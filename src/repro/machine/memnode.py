"""Intra-node shared-memory fabric.

Within a node, a "message" is a cache-coherent store observed by another
core: cheap, but not free.  The model has one FIFO
:class:`~repro.sim.primitives.Resource` per *socket* — the socket's
memory controller — and a transaction occupies the controller of the
**destination** core's socket (the home of the written line).  A burst of
notifications aimed at one leader therefore serializes, which is the
shared-memory analogue of the NIC gap and the reason a *linear* barrier
beats dissemination inside a node (§IV-A of the paper), while traffic
homed on different sockets proceeds in parallel.

Stores that cross the socket interconnect occupy the home controller
longer (``cross_socket_bus_factor``) and take the higher
``smp_latency`` to become visible — the NUMA structure the paper lists
as future work and experiment E8 exploits.

A conduit ``loopback`` or ``direct`` route prices its stores with
:meth:`SharedMemory._plan`, holds the home controller for the occupancy
and schedules delivery one visibility latency later (see
:mod:`repro.runtime.conduit`).
"""

from __future__ import annotations

from ..sim import Engine, Resource
from .spec import MachineSpec

__all__ = ["SharedMemory"]


class SharedMemory:
    """Per-socket memory-controller model; the conduit counts the
    stores its same-node routes make."""

    def __init__(self, engine: Engine, spec: MachineSpec):
        self._spec = spec
        self._buses = [
            [
                Resource(engine, capacity=spec.node.bus_capacity,
                         name=f"bus{n}.{s}")
                for s in range(spec.node.sockets)
            ]
            for n in range(spec.num_nodes)
        ]

    def bus(self, node: int, socket: int = 0) -> Resource:
        return self._buses[node][socket]

    def _plan(self, src_core: int, dst_core: int, nbytes: int,
              bandwidth_factor: float):
        """(occupancy seconds, visibility latency, home socket) of a store
        of ``nbytes``.

        The store holds the destination socket's memory controller for
        the occupancy window (``bus_hold`` plus payload streaming time,
        inflated for cross-socket stores), after which the data becomes
        visible to ``dst_core`` one coherence latency later.
        ``bandwidth_factor`` < 1 degrades the streaming rate: conduit
        loopback paths that bounce payloads through chunked
        Active-Message buffers move data slower than a direct memcpy.
        ``src_core == dst_core`` is legal: a self-put degenerates to a
        memcpy.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if not 0 < bandwidth_factor <= 1.0:
            raise ValueError(
                f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
            )
        node = self._spec.node
        same_socket = node.socket_of(src_core) == node.socket_of(dst_core)
        occupancy = node.bus_hold + nbytes / (node.smp_bandwidth * bandwidth_factor)
        if not same_socket:
            occupancy *= node.cross_socket_bus_factor
            latency = node.smp_latency
        else:
            latency = node.intra_socket_latency
        return occupancy, latency, node.socket_of(dst_core)
