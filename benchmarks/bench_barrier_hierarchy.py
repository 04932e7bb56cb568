"""E2 — §V-A claim (2) + the headline "up to 26×": 8 images per node.

The full comparison set of the paper's barrier evaluation:

1. TDLB (UHCAF 2level) — the contribution;
2. GASNet RDMA dissemination / current UHCAF pure dissemination — the
   hierarchy-unaware baseline the 26× is measured against;
3. GASNet IB dissemination — the thin raw-verbs reference TDLB should
   be only *marginally* more expensive than;
4. CAF 2.0 — two-sync-array dissemination over its conduit;
5. MPI_Barrier — MVAPICH, default Open MPI, and Open MPI with the
   hierarchy-aware sm+hierarch modules.

Shape criteria, checked as the registry's E2 claims: the peak TDLB
speedup over pure dissemination (paper: up to 26×); raw-IB
dissemination close to TDLB at the largest config; Open MPI hierarch
between TDLB and flat GASNet; flat MPI ahead of flat GASNet (MPI's sm
BTL is already node-aware).
"""

from functools import partial

from conftest import check, emit

from repro.bench import sweep
from repro.bench.cells import barrier_cell, mpi_barrier_cell
from repro.exec import ResultCache
from repro.runtime.config import (
    CAF20_OPENUH,
    GASNET_IB_DISSEMINATION,
    UHCAF_1LEVEL,
    UHCAF_2LEVEL,
)

IPN = 8


def test_barrier_hierarchy_comparison():
    caf = [("TDLB (UHCAF 2level)", UHCAF_2LEVEL),
           ("UHCAF pure dissemination (GASNet RDMA)", UHCAF_1LEVEL),
           ("GASNet IB dissemination", GASNET_IB_DISSEMINATION),
           ("CAF 2.0", CAF20_OPENUH)]
    mpi = [("MPI_Barrier MVAPICH", "mvapich"),
           ("MPI_Barrier Open MPI", "openmpi"),
           ("MPI_Barrier Open MPI hierarch+sm", "openmpi-hierarch")]
    table = sweep(
        f"E2: barrier latency, {IPN} images per node",
        configs=[(n * IPN, n) for n in (2, 4, 8, 16, 32, 44)],
        systems=[(name, partial(barrier_cell, cfg, IPN)) for name, cfg in caf]
        + [(name, partial(mpi_barrier_cell, tuning, IPN))
           for name, tuning in mpi],
        cache=ResultCache(),
    )
    emit(
        table,
        table.speedup_row("TDLB (UHCAF 2level)",
                          "UHCAF pure dissemination (GASNet RDMA)"),
    )
    check("E2")
