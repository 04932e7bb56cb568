"""Inter-node interconnect fabric (LogGP with per-NIC serialization).

The fabric charges two distinct costs for a message:

* **Injection** — the sender's NIC is a FIFO :class:`~repro.sim.primitives.Resource`;
  each message occupies it for ``gap + nbytes * inject_cost_per_byte``.
  Back-to-back sends from the eight images of a node therefore serialize,
  which is the physical effect behind the paper's observation that flat
  dissemination collapses when many images share a node.
* **Wire** — after injection the payload takes ``latency + nbytes/bandwidth``
  to land at the target, where a delivery callback fires (RDMA-style: no
  receiver CPU involvement).

Both formulas live on :class:`~repro.machine.spec.NetworkSpec`
(``inject_time``, ``wire_time``); a conduit ``remote`` route holds the
sender's NIC for the first and schedules delivery after the second (see
:mod:`repro.runtime.conduit`).  Software per-message overhead (GASNet vs
raw verbs vs MPI) is charged by the conduit on the *sender's core*, not
here.
"""

from __future__ import annotations

from ..sim import Engine, Resource
from .spec import MachineSpec

__all__ = ["Interconnect"]


class Interconnect:
    """The cluster's network: one NIC resource per node; the conduit
    counts the messages its remote routes inject."""

    def __init__(self, engine: Engine, spec: MachineSpec):
        self._nics = [
            Resource(engine, capacity=spec.network.nic_capacity, name=f"nic{n}")
            for n in range(spec.num_nodes)
        ]

    def nic(self, node: int) -> Resource:
        return self._nics[node]
