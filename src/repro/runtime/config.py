"""Runtime configurations: which stack a simulated program runs on.

A :class:`RuntimeConfig` bundles the axes the paper's evaluation varies —
conduit software profile, hierarchy awareness, collective strategies, and
compiler-backend compute efficiency — into one named object.  The module
constants are the exact comparison lines of §V:

========================  =============================================
``UHCAF_2LEVEL``          the paper's contribution: teams + TDLB +
                          two-level reduce/broadcast over GASNet
``UHCAF_1LEVEL``          same compiler/runtime, flat algorithms,
                          hierarchy-unaware (the "default approach")
``GASNET_IB_DISSEMINATION``  dissemination straight over IB verbs — the
                          low-level reference TDLB is "only marginally
                          more expensive" than
``CAF20_OPENUH`` /        Rice CAF 2.0: flat two-array dissemination,
``CAF20_GFORTRAN``        binomial collectives, backend-dependent
                          compute quality
``OPENMPI_GCC``           HPL's Open MPI line (Figure 1) on the
                          ``MPI_NATIVE`` profile; E2's MPI_Barrier rows
                          run on :mod:`repro.baselines.mpi` instead
========================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..calibration import (
    BACKEND_EFFICIENCY,
    CAF20_GASNET,
    GASNET_RDMA,
    IB_VERBS,
    MPI_NATIVE,
    ConduitProfile,
)

__all__ = [
    "RuntimeConfig",
    "UHCAF_2LEVEL",
    "UHCAF_1LEVEL",
    "GASNET_IB_DISSEMINATION",
    "CAF20_OPENUH",
    "CAF20_GFORTRAN",
    "OPENMPI_GCC",
    "NAMED_CONFIGS",
]


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything that distinguishes one software stack from another."""

    name: str
    conduit_profile: ConduitProfile
    hierarchy_aware: bool
    barrier: str
    reduce: str
    broadcast: str
    allgather: str = "two-level"
    alltoall: str = "two-level"
    #: key into :data:`repro.calibration.BACKEND_EFFICIENCY`
    backend: str = "openuh"
    leader_strategy: str = "lowest"
    #: allow :mod:`repro.collectives.macro` to collapse eligible
    #: collective windows into analytically-replayed macro-events.  They
    #: engage on teams that are flat within themselves (each member owns
    #: its node within the team): the full team when every image owns
    #: its node, and sub-teams such as HPL's column teams on machines
    #: with several images per node.  A team with several members on one
    #: node never opens a window.  The replay is not always exact: a
    #: replayed window, on the full team or a sub-team, resumes the
    #: images that leave it at one instant in team-index order, not in
    #: the fine-grained path's order, so a ``lock``,
    #: ``atomic_fetch_add`` or ``get`` aimed at one image right after it
    #: can resolve differently, unflagged (see
    #: :func:`repro.runtime.program.run_spmd`).  A blocking ``get``
    #: landing among a collapsed window's virtual NIC holds is caught
    #: and flags ``world.macro.inexact``.  The runtime falls back to
    #: fine-grained execution whenever any observer (monitor, trace,
    #: tiebreak RNG, fault schedule) is attached; set False to force the
    #: fine-grained path unconditionally.
    macro_events: bool = True

    @property
    def compute_efficiency(self) -> float:
        return BACKEND_EFFICIENCY[self.backend]

    def with_(self, **changes) -> "RuntimeConfig":
        """A modified copy — ablations swap one axis at a time."""
        return replace(self, **changes)


UHCAF_2LEVEL = RuntimeConfig(
    name="uhcaf-2level",
    conduit_profile=GASNET_RDMA,
    hierarchy_aware=True,
    barrier="tdlb",
    reduce="two-level",
    broadcast="two-level",
    allgather="two-level",
    backend="openuh",
)

UHCAF_1LEVEL = RuntimeConfig(
    name="uhcaf-1level",
    conduit_profile=GASNET_RDMA,
    hierarchy_aware=False,
    barrier="dissemination",
    reduce="linear-flat",
    broadcast="binomial-flat",
    allgather="linear-flat",
    alltoall="linear-flat",
    backend="openuh",
)

GASNET_IB_DISSEMINATION = RuntimeConfig(
    name="gasnet-ib-dissemination",
    conduit_profile=IB_VERBS,
    hierarchy_aware=False,
    barrier="dissemination",
    reduce="binomial-flat",
    broadcast="binomial-flat",
    allgather="bruck-flat",
    alltoall="pairwise-flat",
    backend="openuh",
)

CAF20_OPENUH = RuntimeConfig(
    name="caf2.0-openuh",
    conduit_profile=CAF20_GASNET,
    hierarchy_aware=False,
    barrier="dissemination-mcs",
    reduce="binomial-flat",
    broadcast="binomial-flat",
    allgather="bruck-flat",
    alltoall="pairwise-flat",
    backend="openuh",
)

CAF20_GFORTRAN = RuntimeConfig(
    name="caf2.0-gfortran",
    conduit_profile=CAF20_GASNET,
    hierarchy_aware=False,
    barrier="dissemination-mcs",
    reduce="binomial-flat",
    broadcast="binomial-flat",
    allgather="bruck-flat",
    alltoall="pairwise-flat",
    backend="gfortran",
)

#: HPL's "Open MPI (no tuning)" line: flat MPI collectives, GCC compute.
OPENMPI_GCC = RuntimeConfig(
    name="openmpi-gcc",
    conduit_profile=MPI_NATIVE,
    hierarchy_aware=False,
    barrier="dissemination",
    reduce="recursive-doubling",
    broadcast="binomial-flat",
    allgather="bruck-flat",
    alltoall="pairwise-flat",
    backend="gcc-mpi",
)

NAMED_CONFIGS = {
    cfg.name: cfg
    for cfg in (
        UHCAF_2LEVEL,
        UHCAF_1LEVEL,
        GASNET_IB_DISSEMINATION,
        CAF20_OPENUH,
        CAF20_GFORTRAN,
        OPENMPI_GCC,
    )
}
