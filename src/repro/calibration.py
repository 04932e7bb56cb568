"""Calibrated model constants and the rationale for each value.

The reproduction's claims are about *ratios* (which algorithm wins, by
roughly what factor, where crossovers fall), so what matters is that the
relative magnitudes below are faithful to the paper's platform:

* A cache-coherent intra-node flag write (~0.1 µs) is an order of
  magnitude cheaper than an InfiniBand one-way message (~2 µs wire +
  software), which in turn is an order of magnitude cheaper than a
  conduit software path under contention.
* GASNet's RDMA-put software path costs several µs per message and its
  per-node progress engine (HCA lock + completion-queue processing)
  serializes concurrent operations issued by the images of one node —
  this is the effect §IV-A of the paper describes as "all those
  notifications would have to be serialized".  Raw IB verbs have a thin,
  non-serializing path, which is why the paper finds dissemination
  *directly over verbs* competitive with TDLB.
* A hierarchy-**unaware** runtime pays the conduit path even when source
  and target share a node (GASNet's ibv conduit without PSHM loops
  same-node RMA through the HCA/AM path, with the extra delay of waiting
  for the target to poll).  A hierarchy-**aware** runtime does a direct
  store instead.  This asymmetry is the entire lever of the paper.

Numbers were then fine-tuned so the microbenchmark harness lands in the
paper's reported bands (≈26× barrier, ≈74× reduction, ≈3× broadcast,
≈32% HPL); see EXPERIMENTS.md for the measured outcomes.

:mod:`repro.report` re-derives the headline ratios from the simulator
and checks each against its band, the two constant ratios the paper's
argument rests on included, so a constant drifting out of the paper's
regime fails ``python -m repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ConduitProfile",
    "DIRECT_SMP",
    "IB_VERBS",
    "GASNET_RDMA",
    "CAF20_GASNET",
    "MPI_NATIVE",
    "BACKEND_EFFICIENCY",
    "PAPER_NODES",
    "PAPER_CORES_PER_NODE",
]

#: the paper's cluster size (44 nodes) and node width (dual quad-core)
PAPER_NODES = 44
PAPER_CORES_PER_NODE = 8


@dataclass(frozen=True)
class ConduitProfile:
    """Per-message software costs of one communication stack.

    Attributes
    ----------
    remote_overhead:
        Sender-side CPU time to issue one inter-node message.
    local_overhead:
        Sender-side CPU time when the target shares the node but the
        message still goes through the conduit (hierarchy-unaware path).
    loopback_penalty:
        Extra target-side delay for conduit-loopback delivery (the AM
        handler runs only when the target's runtime polls).
    serialize_overhead:
        If true, software overhead occupies the node's single conduit
        progress engine (GASNet's HCA lock / CQ poller) so concurrent
        issues from co-located images serialize; if false, overhead is
        charged on each image's own core in parallel (raw verbs QPs,
        independent MPI processes).
    recv_overhead:
        Receiver-side CPU time per message (two-sided conduits only).
    loopback_bw_factor:
        Effective intra-node streaming rate of the loopback path as a
        fraction of the node's memcpy bandwidth.  GASNet's ibv loopback
        bounces payloads through ≤4 KiB Active-Message buffers, roughly
        halving throughput versus a direct copy; the hierarchy-aware
        direct path always streams at full rate.
    """

    name: str
    remote_overhead: float
    local_overhead: float
    loopback_penalty: float = 0.0
    serialize_overhead: bool = False
    recv_overhead: float = 0.0
    loopback_bw_factor: float = 1.0


#: The hierarchy-aware intra-node path: a plain store into a shared
#: segment plus a memory fence — no conduit involvement at all.
DIRECT_SMP = ConduitProfile(
    name="direct-smp",
    remote_overhead=0.0,  # never used for remote targets
    local_overhead=0.04e-6,
    loopback_penalty=0.0,
    serialize_overhead=False,
)

#: Thin path straight onto the HCA: post a work request to a per-image
#: queue pair.  No shared progress engine, minimal per-message cost.
IB_VERBS = ConduitProfile(
    name="ib-verbs",
    remote_overhead=0.6e-6,
    local_overhead=0.9e-6,  # loopback QP: still an HCA transaction
    loopback_penalty=0.6e-6,
    serialize_overhead=False,
    loopback_bw_factor=0.8,
)

#: GASNet 1.22 ibv-conduit RDMA-put path as used by UHCAF: several µs of
#: software per message, serialized through the node-level progress
#: engine, and a costly AM-loopback for same-node targets.
GASNET_RDMA = ConduitProfile(
    name="gasnet-rdma",
    remote_overhead=2.4e-6,
    local_overhead=7.7e-6,
    loopback_penalty=3.5e-6,
    serialize_overhead=True,
    loopback_bw_factor=0.4,
)

#: Rice CAF 2.0 runs over the same GASNet but adds source-to-source glue
#: (function-pointer dispatch, descriptor marshalling) on every call.
CAF20_GASNET = ConduitProfile(
    name="caf2.0-gasnet",
    remote_overhead=3.0e-6,
    local_overhead=7.8e-6,
    loopback_penalty=3.5e-6,
    serialize_overhead=True,
    loopback_bw_factor=0.4,
)

#: A tuned native MPI stack (MVAPICH / Open MPI over verbs): two-sided,
#: moderate per-message software cost on both ends, shared-memory BTL for
#: same-node peers (so its local path is cheap — MPI was already
#: hierarchy-aware at the transport level, which is why the paper's flat
#: MPI barriers are far better than flat GASNet ones).
MPI_NATIVE = ConduitProfile(
    name="mpi-native",
    remote_overhead=1.3e-6,
    local_overhead=0.35e-6,
    loopback_penalty=0.25e-6,
    serialize_overhead=False,
    recv_overhead=0.5e-6,
)

#: Effective DGEMM efficiency (fraction of the 8.8 GFLOP/s per-core peak)
#: by compiler backend.  The paper's HPL builds use -O3 loop nests, not a
#: vendor BLAS, so rates are a few percent of peak; the values are
#: calibrated from Figure 1's 256-core points (OpenUH-generated code
#: reached 95 GFLOP/s where the GFortran backend reached 29.48, a ~3.2×
#: code-quality gap; the untuned GCC+Open MPI build sits in between).
BACKEND_EFFICIENCY = {
    "openuh": 0.10,
    "gfortran": 0.031,
    "gcc-mpi": 0.085,
}
