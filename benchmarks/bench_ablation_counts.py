"""E6 — notification-count accounting behind §IV-A's analysis.

The paper's methodology section argues from message counts:
dissemination needs n·log n notifications where a centralized linear
barrier needs 2(n−1), and what matters is *where* they land — serialized
through one shared-memory system, or spread across NICs.  This bench
regenerates those counts from the simulator's traffic meters, shows the
placement split that motivates TDLB (inter-node messages per barrier:
Θ(n·log n) for flat dissemination vs nodes·⌈log₂ nodes⌉ for TDLB), and
checks the registry's E6 claim: every count matches its closed form.
"""

from conftest import check

from repro.bench.cells import notifications_cell
from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL


def test_notification_counts():
    ipn = 8
    linear = UHCAF_1LEVEL.with_(barrier="linear")
    rows = [(images, [notifications_cell(cfg, ipn, images, images // ipn)
                      for cfg in (UHCAF_1LEVEL, linear, UHCAF_2LEVEL)])
            for images in (16, 32, 64, 176, 352)]
    print()
    print("E6: notifications per barrier (8 images/node)")
    print(f"{'config':>10} {'diss total':>11} {'diss inter':>11} "
          f"{'linear total':>13} {'tdlb total':>11} {'tdlb inter':>11}")
    for images, (diss, lin, tdlb) in rows:
        print(f"{images:>6}({images // ipn:<2}) {diss[0]:>11} {diss[1]:>11} "
              f"{lin[0]:>13} {tdlb[0]:>11} {tdlb[1]:>11}")
    print()
    check("E6")
