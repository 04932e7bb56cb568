"""A miniature MPI on the simulated cluster — the paper's MPI_Barrier lines.

The paper's barrier experiment (E2) compares its TDLB against
MPI_Barrier from MVAPICH 2.0beta, default Open MPI 1.8.3, and Open MPI
with its hierarchy-awareness options (the ``hierarch`` and ``sm`` coll
modules).  This module provides just enough of MPI to reproduce those
three lines, running on the same :class:`~repro.machine.Machine` and
cost model as the CAF runtime:

* :func:`run_mpi` — SPMD launcher for rank programs.  There is one
  communicator (``MPI_COMM_WORLD``), so a rank is its machine proc.
* :class:`MpiContext` — eager two-sided ``send``/``recv`` with
  (source, tag) matching, and ``barrier`` in three tunings
  (``mvapich``, ``openmpi``, ``openmpi-hierarch``).

A send is one costed transfer through a
:class:`~repro.runtime.conduit.Conduit` with the MPI-native profile:
the sender pays its software overhead, same-node pairs ride the
shared-memory BTL (the conduit's ``loopback`` route) and other pairs the
NIC.  The library charges no loopback penalty, so the profile's is set
to 0 here; HPL's Open MPI line (``OPENMPI_GCC``) keeps it.  The receiver
pays ``recv_overhead`` when a message matches.

Ranks are **0-based**, as in MPI; only the CAF side of the repo uses
Fortran's 1-based images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..calibration import MPI_NATIVE
from ..collectives.base import binomial_peers, payload_nbytes
from ..collectives.reduce import _freeze
from ..machine import Machine, MachineSpec, build_machine, paper_cluster
from ..runtime.conduit import Conduit
from ..sim import Cell, Engine, Process, Timeout, WaitFor

__all__ = ["MpiWorld", "MpiContext", "run_mpi", "MPI_TUNINGS"]

MPI_TUNINGS = ("mvapich", "openmpi", "openmpi-hierarch")


class MpiWorld:
    """Shared state of one MPI job: machine, conduit, match queues."""

    def __init__(self, machine: Machine, tuning: str = "openmpi"):
        if tuning not in MPI_TUNINGS:
            raise ValueError(f"unknown MPI tuning {tuning!r}; have {MPI_TUNINGS}")
        self.machine = machine
        self.engine = machine.engine
        self.tuning = tuning
        self.profile = replace(MPI_NATIVE, loopback_penalty=0.0)
        self.conduit = Conduit(machine, self.profile)
        # Unexpected-message queue per rank: (src, tag, payload) in
        # arrival order, plus an arrival counter to wake matchers.
        ranks = range(machine.num_images)
        self._queues: List[List[Tuple[int, Any, Any]]] = [[] for _ in ranks]
        self._arrivals = [Cell(self.engine, 0, name=f"mpi.arrive[{r}]")
                          for r in ranks]

    def enqueue(self, dst: int, src: int, tag: Any, payload: Any) -> None:
        self._queues[dst].append((src, tag, payload))
        self._arrivals[dst].add(1)

    def match(self, dst: int, src: Optional[int], tag: Any) -> Optional[Tuple]:
        """Pop the first queued message matching (src, tag); None-src and
        None-tag are wildcards (MPI_ANY_SOURCE / MPI_ANY_TAG)."""
        queue = self._queues[dst]
        for i, (msrc, mtag, _payload) in enumerate(queue):
            if (src is None or msrc == src) and (tag is None or mtag == tag):
                return queue.pop(i)
        return None


class MpiContext:
    """One rank's API handle (the ``comm`` argument of rank programs)."""

    def __init__(self, world: MpiWorld, rank: int):
        self.world = world
        self.proc = rank
        # Every rank issues its barriers in the same order (SPMD), so
        # local counters agree and successive barriers get distinct,
        # matching tags.
        self._barriers = 0

    @property
    def now(self) -> float:
        return self.world.engine.now

    @property
    def conduit(self) -> Conduit:
        """The job's conduit (its traffic counters), mirroring
        :class:`~repro.runtime.program.CafContext` so benchmark bodies
        run unchanged on either stack."""
        return self.world.conduit

    def rank(self) -> int:
        return self.proc

    def size(self) -> int:
        return self.world.machine.num_images

    # ------------------------------------------------------------------
    # Point-to-point (eager protocol)
    # ------------------------------------------------------------------
    def send(self, value: Any, dest: int, tag: Any = 0):
        """Blocking-through-injection eager send (both sides pay software
        overhead; small messages never rendezvous)."""
        world = self.world
        payload = _freeze(value)
        yield from world.conduit.transfer(
            self.proc, dest, payload_nbytes(value),
            on_delivered=lambda: world.enqueue(dest, self.proc, tag, payload),
        )

    def recv(self, source: Optional[int] = None, tag: Any = None):
        """Blocking receive; returns the payload.  Wildcards via None."""
        world = self.world
        cell = world._arrivals[self.proc]
        while True:
            hit = world.match(self.proc, source, tag)
            if hit is not None:
                yield Timeout(world.profile.recv_overhead)
                return hit[2]
            seen = cell.value
            yield WaitFor(cell, lambda v, s=seen: v > s)

    # ------------------------------------------------------------------
    # MPI_Barrier (tuning-dispatched)
    # ------------------------------------------------------------------
    def _node_groups(self) -> Tuple[List[int], Dict[int, int]]:
        """(leader ranks sorted, rank → leader rank) by physical node —
        what Open MPI's hierarch module computes at communicator setup."""
        machine = self.world.machine
        by_node: Dict[int, List[int]] = {}
        for r in range(self.size()):
            by_node.setdefault(machine.node_of(r), []).append(r)
        leader_of: Dict[int, int] = {}
        leaders = []
        for node in sorted(by_node):
            ranks = by_node[node]
            leaders.append(ranks[0])
            for r in ranks:
                leader_of[r] = ranks[0]
        return leaders, leader_of

    def barrier(self):
        """MPI_Barrier in the world's tuning: pairwise-exchange dissemination
        (mvapich), the default binomial fan-in/fan-out tree (openmpi, as in
        Open MPI 1.8 untuned), or the two-level sm+hierarch scheme
        (openmpi-hierarch)."""
        self._barriers += 1
        tag = ("barrier", self._barriers)
        tuning = self.world.tuning
        if tuning == "openmpi-hierarch":
            yield from self._barrier_hierarchical(tag)
        elif tuning == "openmpi":
            yield from self._barrier_tree(tag)
        else:
            yield from self._barrier_dissemination(list(range(self.size())), tag)

    def _barrier_tree(self, tag) -> Any:
        """Binomial fan-in to rank 0 then fan-out: 2·log2(n) latency, the
        shape of Open MPI's default (coll basic/tuned untuned) barrier."""
        n = self.size()
        if n <= 1:
            return
        parent, children = binomial_peers(self.proc, n)
        for child in sorted(children):
            yield from self.recv(child, tag + ("up",))
        if parent is not None:
            yield from self.send(0, parent, tag + ("up",))
            yield from self.recv(parent, tag + ("down",))
        for child in children:
            yield from self.send(0, child, tag + ("down",))

    def _barrier_dissemination(self, participants: List[int], tag) -> Any:
        n = len(participants)
        if n <= 1:
            return
        pos = participants.index(self.proc)
        rounds = math.ceil(math.log2(n))
        for r in range(rounds):
            dist = 1 << r
            to = participants[(pos + dist) % n]
            frm = participants[(pos - dist) % n]
            yield from self.send(0, to, tag + (r,))
            yield from self.recv(frm, tag + (r,))

    def _barrier_hierarchical(self, tag) -> Any:
        leaders, leader_of = self._node_groups()
        me = self.proc
        my_leader = leader_of[me]
        if me != my_leader:
            yield from self.send(0, my_leader, tag + ("up",))
            yield from self.recv(my_leader, tag + ("down",))
            return
        locals_ = [r for r, l in leader_of.items() if l == me and r != me]
        for _ in locals_:
            yield from self.recv(None, tag + ("up",))
        yield from self._barrier_dissemination(leaders, tag + ("lead",))
        for r in locals_:
            yield from self.send(0, r, tag + ("down",))


@dataclass
class MpiResult:
    time: float
    results: List[Any]
    world: MpiWorld


def run_mpi(
    main: Callable[..., Any],
    num_ranks: int,
    images_per_node: Optional[int] = None,
    spec: Optional[MachineSpec] = None,
    tuning: str = "openmpi",
    args: Tuple = (),
) -> MpiResult:
    """Run ``main(ctx, *args)`` on ``num_ranks`` MPI ranks.

    Mirrors :func:`repro.runtime.program.run_spmd` so benchmark harnesses
    can treat the two stacks uniformly.
    """
    if spec is None:
        ipn = images_per_node or 1
        spec = paper_cluster(max(-(-num_ranks // ipn), 1))
    engine = Engine()
    machine = build_machine(engine, spec, num_ranks, images_per_node=images_per_node)
    world = MpiWorld(machine, tuning=tuning)
    processes = [
        Process(engine, main(MpiContext(world, rank), *args), name=f"rank{rank}")
        for rank in range(num_ranks)
    ]
    final = engine.run()
    return MpiResult(time=final, results=[p.result for p in processes], world=world)
