"""E3 — all-to-all reduction: the paper's "up to 74-fold" improvement.

Compares the two-level ``co_sum`` against the original UHCAF default
(the centralized AM-based reduction) and the flat binomial alternative,
over the 8-images-per-node sweep and across payload sizes.  The
headline factor is measured at one-element payloads on the full 44-node
cluster, where root-side serialization is most punishing — exactly the
regime §VII's "74-fold" refers to.  The bands are the registry's E3
and E3b claims.
"""

from functools import partial

from conftest import check, emit

from repro.bench import sweep
from repro.bench.cells import reduce_cell
from repro.exec import ResultCache
from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL

IPN = 8
BINOMIAL_FLAT = UHCAF_1LEVEL.with_(name="uhcaf-binomial",
                                   reduce="binomial-flat")


def test_reduction_latency_small_payload():
    table = sweep(
        "E3: co_sum latency, 1 element, 8 images per node",
        configs=[(n * IPN, n) for n in (2, 8, 16, 32, 44)],
        systems=[
            ("two-level reduction (UHCAF 2level)",
             partial(reduce_cell, UHCAF_2LEVEL, IPN, 1)),
            ("default UHCAF reduction (centralized)",
             partial(reduce_cell, UHCAF_1LEVEL, IPN, 1)),
            ("flat binomial reduction",
             partial(reduce_cell, BINOMIAL_FLAT, IPN, 1)),
        ],
        cache=ResultCache(),
    )
    emit(table, table.speedup_row("two-level reduction (UHCAF 2level)",
                                  "default UHCAF reduction (centralized)"))
    # up to 74-fold, growing with scale (serialization at the root)
    check("E3")


def test_reduction_payload_sweep():
    """Fixed 44-node cluster, growing payloads: the improvement narrows
    as bandwidth terms take over but never inverts."""
    emit(sweep(
        "E3b: co_sum latency vs payload, 352 images on 44 nodes",
        configs=[(352, 44)],
        systems=[(f"{name}, {ne} elems", partial(reduce_cell, cfg, IPN, ne))
                 for name, cfg in (("two-level", UHCAF_2LEVEL),
                                   ("default", UHCAF_1LEVEL))
                 for ne in (1, 64, 1024, 8192)],
        cache=ResultCache(),
    ))
    check("E3b")
