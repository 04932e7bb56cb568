"""E1 — §V-A claim (1): flat hierarchy (one image per node).

With every image alone on its node there is no intranode set to
exploit, and TDLB must degenerate to the plain dissemination barrier:
the paper reports it "performs as well as a pure dissemination
algorithm in the case of a flat hierarchy".  This bench sweeps node
counts at 1 image/node and checks the registry's E1 claim: exact parity.
"""

from functools import partial

from conftest import check, emit

from repro.bench import sweep
from repro.bench.cells import barrier_cell
from repro.exec import ResultCache
from repro.runtime.config import (
    GASNET_IB_DISSEMINATION,
    UHCAF_1LEVEL,
    UHCAF_2LEVEL,
)


def test_flat_hierarchy_parity():
    table = sweep(
        "E1: barrier latency, 1 image per node (flat hierarchy)",
        configs=[(n, n) for n in (2, 4, 8, 16, 32, 44)],
        systems=[
            ("TDLB (UHCAF 2level)", partial(barrier_cell, UHCAF_2LEVEL, 1)),
            ("pure dissemination (UHCAF 1level)",
             partial(barrier_cell, UHCAF_1LEVEL, 1)),
            ("dissemination over raw IB verbs",
             partial(barrier_cell, GASNET_IB_DISSEMINATION, 1)),
        ],
        cache=ResultCache(),
    )
    emit(table, table.speedup_row("TDLB (UHCAF 2level)",
                                  "pure dissemination (UHCAF 1level)"))
    # exact degeneration: the same algorithm after leader election
    check("E1")
