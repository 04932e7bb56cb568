"""E5 — Figure 1: HPL GFLOP/s across the paper's five configurations.

Regenerates the figure's series at its exact x-axis points
(4(4), 16(16), 16(2), 64(8), 256(32)) with all five systems, and checks
the registry's E5 claims, the shape criteria of the paper's §V-B:

* UHCAF 2level leads everywhere, reaching the paper's 95 GFLOP/s band
  at 256(32);
* the 2level-over-1level improvement peaks in the paper's "up to 32%"
  band;
* CAF 2.0 with the OpenUH backend lands *between* UHCAF 2level and
  UHCAF 1level at 256 cores (paper: 80 vs 95 and ~72);
* the GFortran backend collapses to the paper's 29.48 GFLOP/s band.

This is the heaviest benchmark (~1 minute in sequence): a full N=6144
factorization is simulated 25 times.  Its cells are the report's, so
after ``python -m repro`` the figure is served from the result cache.
"""

import pytest
from conftest import check, emit

from repro.bench import figure1
from repro.exec import ResultCache


@pytest.mark.slow
def test_figure1():
    table = figure1(cache=ResultCache())
    two = table.get("UHCAF 2level")
    one = table.get("UHCAF 1level")
    gains = "  ".join(
        f"{lbl}:{two.values[lbl] / one.values[lbl]:5.2f}x"
        for lbl in table.labels
    )
    emit(table, f"2level improvement over 1level (GFLOP/s ratio):  {gains}")
    check("E5")
