"""E4 — one-to-all broadcast: the paper's "up to 3-fold" improvement.

Two-level ``co_broadcast`` versus the flat binomial default, on the
8-images-per-node sweep.  The broadcast baseline is already a tree (not
the centralized reduction baseline), so its deficit is only the
conduit-loopback cost of its intranode edges — hence the paper's modest
3× rather than the reduction's 74×.  The bands at the paper-scale
configurations (≥16 nodes) are the registry's E4 and E4b claims.
"""

from functools import partial

from conftest import check, emit

from repro.bench import sweep
from repro.bench.cells import broadcast_cell
from repro.exec import ResultCache
from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL

IPN = 8


def test_broadcast_latency():
    table = sweep(
        "E4: co_broadcast latency, 8 images per node",
        configs=[(n * IPN, n) for n in (16, 32, 44)],
        systems=[
            ("two-level broadcast (UHCAF 2level)",
             partial(broadcast_cell, UHCAF_2LEVEL, IPN, 1)),
            ("flat binomial broadcast (default)",
             partial(broadcast_cell, UHCAF_1LEVEL, IPN, 1)),
        ],
        cache=ResultCache(),
    )
    emit(table, table.speedup_row("two-level broadcast (UHCAF 2level)",
                                  "flat binomial broadcast (default)"))
    # ~3x at the full 44-node scale, narrowing as node count grows
    # (bandwidth terms take over)
    check("E4")


def test_broadcast_message_sizes():
    """At 44 nodes, larger payloads shrink the factor toward a
    bandwidth-bound crossover: latency-class messages win ~3–4×, while by
    ~32 KiB the wire/memcpy terms dominate both algorithms equally and
    the two-level advantage evaporates (≈1×) — the broadcast improvement
    is a *small-message* phenomenon, consistent with it being the
    paper's most modest headline (3× vs the reduction's 74×)."""
    emit(sweep(
        "E4b: co_broadcast latency vs payload, 352 images on 44 nodes",
        configs=[(352, 44)],
        systems=[(f"{name}, {ne} elems",
                  partial(broadcast_cell, cfg, IPN, ne))
                 for name, cfg in (("two-level", UHCAF_2LEVEL),
                                   ("flat", UHCAF_1LEVEL))
                 for ne in (1, 128, 4096)],
        cache=ResultCache(),
    ))
    check("E4b")
