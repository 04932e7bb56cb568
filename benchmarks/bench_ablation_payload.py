"""E12 — the reduction strategy map across payload sizes.

The paper's two-level reduction is a *latency* optimization; MPI
practice adds a *bandwidth* algorithm (Rabenseifner's reduce-scatter +
allgather, total traffic 2·(n−1)/n·size vs recursive doubling's
log₂(n)·size) above a size threshold.  This ablation sweeps the payload
at 128 images / 16 nodes and locates both boundaries:

* tiny payloads — two-level wins (fewest latency-priced rounds over the
  wire, everything else on coherence fabric);
* large payloads — Rabenseifner overtakes recursive doubling (the
  textbook crossover), and eventually the latency-oriented two-level
  algorithm too;

completing the strategy map a production runtime would dispatch on —
size *and* hierarchy, not either alone.
"""

from repro.bench.tables import ResultTable, Series
from conftest import emit

from repro.bench import reduce_benchmark
from repro.runtime.config import UHCAF_2LEVEL

IMAGES, IPN = 128, 8
SIZES = [1, 64, 1024, 16384, 131072]  # elements (8 B … 1 MiB)

STRATEGIES = {
    "two-level": UHCAF_2LEVEL,
    "recursive-doubling": UHCAF_2LEVEL.with_(reduce="recursive-doubling"),
    "rabenseifner": UHCAF_2LEVEL.with_(reduce="rabenseifner"),
}


def test_reduction_strategy_map(once):
    def run():
        out = {}
        for name, cfg in STRATEGIES.items():
            out[name] = {
                ne: reduce_benchmark(IMAGES, IPN, cfg, nelems=ne,
                                     iters=4).seconds_per_op
                for ne in SIZES
            }
        return out

    results = once(run)
    labels = [f"{ne * 8 // 1024}KiB" if ne >= 128 else f"{ne * 8}B"
              for ne in SIZES]
    table = ResultTable(
        "E12: allreduce latency vs payload, 128 images on 16 nodes",
        labels=labels, unit="us",
    )
    for name, per_size in results.items():
        series = Series(name)
        for ne, label in zip(SIZES, labels):
            series.add(label, per_size[ne] * 1e6)
        table.add_series(series)
    emit(table)

    two = results["two-level"]
    rd = results["recursive-doubling"]
    rab = results["rabenseifner"]
    # latency regime: two-level wins at one element
    assert two[1] < rd[1] and two[1] < rab[1]
    # bandwidth regime: rabenseifner beats recursive doubling at 1 MiB
    assert rab[131072] < rd[131072]
    # and the crossover vs two-level exists within the sweep
    assert rab[131072] < two[131072]
    # monotone costs in payload for every strategy
    for per_size in results.values():
        costs = [per_size[ne] for ne in SIZES]
        assert costs == sorted(costs)
