"""The paper's claims: one registry, evaluated in one pooled, cached sweep.

Every result of the paper's evaluation (§V–VII) that this reproduction
asserts is one :class:`Entry` of :data:`REGISTRY`: an experiment id,
the paper's text, the simulation cells it reads (module-level tasks
over :mod:`repro.bench.cells`), and one predicate with its acceptance
band, plus a quick band where the reduced grid (2 and 8 nodes, a
smaller HPL) needs one.  Nothing else restates a band: ``benchmarks/``
checks these entries, and EXPERIMENTS.md's fidelity table is the
rendered full-scale report.

:func:`run_report` runs every entry's cells, de-duplicated, in one
:func:`~repro.exec.run_tasks` call, so ``REPRO_JOBS`` fans the whole
report out and a result cache serves a re-run (``python -m repro`` uses
the default one).  A cell that raises fails the claims that read it,
and no other.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import partial
from typing import (Any, Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple)

from .bench.cells import (barrier_cell, broadcast_cell, hpl_cell,
                          mpi_barrier_cell, notifications_cell, reduce_cell)
from .bench.hplbench import figure1_cells
from .bench.microbench import sweep_tasks
from .bench.tables import config_label
from .calibration import (DIRECT_SMP, GASNET_RDMA, MPI_NATIVE,
                          PAPER_CORES_PER_NODE)
from .exec import TaskSpec, run_tasks, stable_fingerprint
from .runtime.config import GASNET_IB_DISSEMINATION, UHCAF_1LEVEL, UHCAF_2LEVEL

__all__ = ["Claim", "Entry", "REGISTRY", "evaluate", "run_report",
           "render_report"]

Cells = Mapping[Hashable, TaskSpec]

#: the band of a rule: its check returns whether the rule holds
HOLDS = (1.0, 1.0)

IPN = PAPER_CORES_PER_NODE
NODES = (2, 4, 8, 16, 32, 44)
QUICK_NODES = (2, 8)


@dataclass(frozen=True)
class Entry:
    """One fidelity row.  ``check`` maps the values of ``cells`` (same
    keys) to ``(value, measured text)``; the claim holds when the value
    lies in ``band``, bounds included.  ``quick_cells`` are the reduced
    grid's (None: full scale only), ``quick_band`` its band (None:
    ``band``)."""

    experiment: str
    description: str
    paper: str
    cells: Cells
    check: Callable[[Dict[Hashable, Any]], Tuple[float, str]]
    band: Tuple[float, float]
    quick_cells: Optional[Cells] = None
    quick_band: Optional[Tuple[float, float]] = None


@dataclass
class Claim:
    """One entry's outcome: the paper's claim with its measured value."""

    experiment: str
    description: str
    paper: str
    measured: str
    band: Tuple[float, float]
    value: float
    #: why a cell the claim reads failed (the claim then fails)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        lo, hi = self.band
        return self.error is None and lo <= self.value <= hi


# ----------------------------------------------------------------------
# Cells: :func:`~repro.bench.microbench.sweep_tasks`' tasks, so the
# report, the benchmarks and ``sweep`` share result-cache entries
# ----------------------------------------------------------------------
def _grid(systems: Mapping[str, tuple], nodes: Sequence[int],
          ipn: int = IPN) -> Dict[Tuple[str, int], TaskSpec]:
    """``{(system, n): task}`` at ``n * ipn`` images on ``n`` nodes;
    ``systems`` maps a name to a cell function and its leading args."""
    _, tasks = sweep_tasks([(n * ipn, n) for n in nodes],
                           [(name, partial(*cell))
                            for name, cell in systems.items()])
    return dict(zip([(name, n) for name in systems for n in nodes], tasks))


def _payloads(systems: Mapping[str, tuple],
              nelems: Sequence[int]) -> Dict[Tuple[str, int], TaskSpec]:
    """``{(system, ne): task}`` on the full 44-node cluster."""
    n = NODES[-1]
    keys = [(name, ne) for name in systems for ne in nelems]
    _, tasks = sweep_tasks([(n * IPN, n)], [
        (f"{name}, {ne} elems", partial(*systems[name], ne))
        for name, ne in keys])
    return dict(zip(keys, tasks))


_E1 = {"TDLB": (barrier_cell, UHCAF_2LEVEL, 1),
       "dissemination": (barrier_cell, UHCAF_1LEVEL, 1)}
E1, E1_QUICK = (_grid(_E1, nodes, ipn=1) for nodes in (NODES, QUICK_NODES))

_E2 = {"TDLB": (barrier_cell, UHCAF_2LEVEL, IPN),
       "dissemination": (barrier_cell, UHCAF_1LEVEL, IPN),
       "raw-IB dissemination": (barrier_cell, GASNET_IB_DISSEMINATION, IPN)}
E2, E2_QUICK = (_grid(_E2, nodes) for nodes in (NODES, QUICK_NODES))
_MPI = {"hierarch+sm": (mpi_barrier_cell, "openmpi-hierarch", IPN),
        "MVAPICH": (mpi_barrier_cell, "mvapich", IPN),
        "Open MPI": (mpi_barrier_cell, "openmpi", IPN),
        "dissemination": _E2["dissemination"]}
E2_MPI, E2_MPI_QUICK = (_grid(_MPI, nodes[-1:])
                        for nodes in (NODES, QUICK_NODES))

_E3 = {"two-level": (reduce_cell, UHCAF_2LEVEL, IPN),
       "default": (reduce_cell, UHCAF_1LEVEL, IPN)}
E3, E3_QUICK = (_grid({name: (*cell, 1) for name, cell in _E3.items()}, nodes)
                for nodes in ((2, 8, 16, 32, 44), QUICK_NODES))
E3B = _payloads(_E3, (1, 64, 1024, 8192))

_E4 = {"two-level": (broadcast_cell, UHCAF_2LEVEL, IPN),
       "flat": (broadcast_cell, UHCAF_1LEVEL, IPN)}
E4, E4_QUICK = (_grid({name: (*cell, 1) for name, cell in _E4.items()}, nodes)
                for nodes in ((16, 32, 44), QUICK_NODES))
E4B = _payloads(_E4, (1, 128, 4096))

FIGURE1, FIGURE1_QUICK = figure1_cells(), figure1_cells(quick=True)

_E6 = {"dissemination": (notifications_cell, UHCAF_1LEVEL, IPN),
       "linear": (notifications_cell, UHCAF_1LEVEL.with_(barrier="linear"),
                  IPN),
       "TDLB": (notifications_cell, UHCAF_2LEVEL, IPN)}
E6, E6_QUICK = (_grid(_E6, nodes) for nodes in ((2, 4, 8, 22, 44), (2, 8)))


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
def _label(nodes: int) -> str:
    return config_label(nodes * IPN, nodes)


def _ratios(v, fast: str, slow: str) -> Dict[Hashable, float]:
    """``slow / fast`` per node count or payload, in grid order."""
    return {at: v[slow, at] / v[fast, at] for name, at in v if name == fast}


def _trend(r: Dict[int, float], unit: str) -> str:
    first, *_, last = r
    return (" → ".join(f"{x:.2f}x" for x in r.values())
            + f" over {first}–{last} {unit}")


def _peak(fast: str, slow: str, at, v) -> Tuple[float, str]:
    """``slow / fast`` at the node count ``at`` picks (``min`` or
    ``max``); NaN unless that is the sweep's one peak."""
    r = _ratios(v, fast, slow)
    n, peak = at(r), max(r, key=r.get)
    unique = all(r[n] > x for m, x in r.items() if m != n)
    return (r[n] if unique else math.nan), f"{r[peak]:.1f}x at {_label(peak)}"


def _ratio(num: str, den: str, digits: int, v) -> Tuple[float, str]:
    """``num / den`` at the largest node count."""
    n = max(at for _, at in v)
    x = v[num, n] / v[den, n]
    return x, f"{x:.{digits}f}x at {_label(n)}"


def _parity(v) -> Tuple[bool, str]:
    """TDLB's latency equals dissemination's, exactly, at every point."""
    nodes = [n for name, n in v if name == "TDLB"]
    off = [n for n in nodes if v["TDLB", n] != v["dissemination", n]]
    return not off, (f"exact at {nodes[0]}–{nodes[-1]} nodes" if not off
                     else f"differs at {off} nodes")


def _mpi_ranking(third: float, v) -> Tuple[bool, str]:
    """Hierarch+sm below ``1/third`` of flat GASNet dissemination, and
    each flat MPI below flat GASNet, at the largest config."""
    n = max(at for _, at in v)
    flat, hier = v["dissemination", n], v["hierarch+sm", n]
    flat_mpi = max(v["MVAPICH", n], v["Open MPI", n])
    return (hier < flat / third and flat_mpi < flat,
            f"hierarch+sm {hier * 1e6:.1f} µs, flat MPI ≤ "
            f"{flat_mpi * 1e6:.1f} µs vs flat GASNet {flat * 1e6:.1f} µs "
            f"at {_label(n)}")


def _narrows(slack: float, v) -> Tuple[bool, str]:
    """The gain stays above 1 and never exceeds ``slack`` times the
    previous payload's."""
    r = _ratios(v, "two-level", "default")
    xs = list(r.values())
    return (all(x > 1 for x in xs)
            and all(b <= a * slack for a, b in zip(xs, xs[1:])),
            _trend(r, "elems"))


def _narrowing_within(lo: float, hi: float, v) -> Tuple[bool, str]:
    """The gain lies in ``[lo, hi]`` at every node count and does not
    grow with node count."""
    r = _ratios(v, "two-level", "flat")
    xs = list(r.values())
    return (all(lo <= x <= hi for x in xs) and xs == sorted(xs, reverse=True),
            _trend(r, "nodes"))


def _crossover(small: float, lo: float, hi: float, v) -> Tuple[bool, str]:
    """The gain exceeds ``small`` at the smallest payload, does not grow
    with payload, and ends in ``[lo, hi]``."""
    r = _ratios(v, "two-level", "flat")
    xs = list(r.values())
    return (xs[0] > small and xs == sorted(xs, reverse=True)
            and lo <= xs[-1] <= hi, _trend(r, "elems"))


def _gflops(legend: str, v) -> Tuple[float, str]:
    big = next(reversed(v))[1]  # Figure 1's cells are configs-minor
    return v[legend, big], f"{v[legend, big]:.1f} GFLOP/s at {big}"


def _hpl_gain(v) -> Tuple[float, str]:
    big = next(reversed(v))[1]
    x = v["UHCAF 2level", big] / v["UHCAF 1level", big]
    return x, f"{(x - 1) * 100:.0f}% at {big}"


def _ordering(legends: Sequence[str], v) -> Tuple[bool, str]:
    """GFLOP/s strictly decreasing along ``legends`` at the largest
    config."""
    big = next(reversed(v))[1]
    xs = [v[legend, big] for legend in legends]
    return (all(a > b for a, b in zip(xs, xs[1:])),
            " > ".join(f"{x:.1f}" for x in xs) + f" at {big}")


def _leads(slack: float, below: float, v) -> Tuple[bool, str]:
    """At every point UHCAF 2level reaches ``slack`` times every other
    system's GFLOP/s, and GFortran stays below ``below`` times it."""
    two = {label: x for (legend, label), x in v.items()
           if legend == "UHCAF 2level"}
    leads = all(two[label] >= x * slack for (_, label), x in v.items())
    gf = max(v["CAF2.0 GFortran backend", label] / x
             for label, x in two.items())
    return (leads and gf < below,
            f"{'leads' if leads else 'trails'} at {len(two)} points; "
            f"GFortran ≤ {gf:.2f}x of it")


def _closed_forms(v) -> Tuple[bool, str]:
    """§IV-A's counts of one barrier on ``n`` images, ``IPN`` per node:
    dissemination n·⌈log₂ n⌉, linear 2(n−1), TDLB 2(IPN−1) per node plus
    nodes·⌈log₂ nodes⌉ inter-node, fewer than dissemination's."""
    nodes = [n for name, n in v if name == "TDLB"]
    off = []
    for n in nodes:
        images, wire = n * IPN, n * math.ceil(math.log2(n))
        diss, tdlb = v["dissemination", n], v["TDLB", n]
        if (diss[0] != images * math.ceil(math.log2(images))
                or v["linear", n][0] != 2 * (images - 1)
                or tdlb != (n * 2 * (IPN - 1) + wire, wire)
                or not tdlb[1] < diss[1]):
            off.append(_label(n))
    return not off, (f"exact at {nodes[0] * IPN}–{nodes[-1] * IPN} images"
                     if not off else f"off at {', '.join(off)}")


def _conduit_local_gap(v) -> Tuple[float, str]:
    x = GASNET_RDMA.local_overhead / DIRECT_SMP.local_overhead
    return x, f"{x:.0f}x"


def _mpi_transport(v) -> Tuple[float, str]:
    x = MPI_NATIVE.remote_overhead / MPI_NATIVE.local_overhead
    return x, f"{x:.1f}x"


#: the paper's claims, in the order the report prints them
REGISTRY: Tuple[Entry, ...] = (
    Entry("E1", "TDLB vs dissemination, 1 image per node", "parity",
          E1, _parity, HOLDS, quick_cells=E1_QUICK),
    Entry("E2", "TDLB over basic dissemination, peaking at 2 nodes",
          "up to 26x", E2, partial(_peak, "TDLB", "dissemination", min),
          (20.0, 32.0), quick_cells=E2_QUICK),
    Entry("E2", "TDLB vs raw-IB dissemination, largest config",
          "marginally more expensive",
          E2, partial(_ratio, "TDLB", "raw-IB dissemination", 2),
          (0.8, 2.0), quick_cells=E2_QUICK),
    Entry("E2", "MPI_Barrier vs flat GASNet dissemination, largest config",
          "hierarchy-aware MPI near TDLB; flat MPI ahead of flat GASNet",
          E2_MPI, partial(_mpi_ranking, 3.0), HOLDS,
          quick_cells=E2_MPI_QUICK),
    Entry("E3", "two-level reduction over the default, peaking at the "
          "largest config", "up to 74x",
          E3, partial(_peak, "two-level", "default", max), (50.0, 100.0),
          quick_cells=E3_QUICK, quick_band=(20.0, 100.0)),
    Entry("E3b", "reduction gain vs payload at 352(44): above 1, "
          "narrowing", "shape: a latency optimization",
          E3B, partial(_narrows, 1.05), HOLDS),
    Entry("E4", "two-level broadcast over flat binomial, largest config",
          "up to 3x", E4, partial(_ratio, "flat", "two-level", 1),
          (2.0, 4.5), quick_cells=E4_QUICK, quick_band=(1.5, 8.0)),
    Entry("E4", "broadcast gain at 16–44 nodes, narrowing",
          "shape: bandwidth terms take over",
          E4, partial(_narrowing_within, 1.5, 6.0), HOLDS),
    Entry("E4b", "broadcast gain vs payload at 352(44): a small-message "
          "win, parity by 32 KiB", "shape: a latency optimization",
          E4B, partial(_crossover, 2.5, 0.9, 1.25), HOLDS),
    Entry("E5", "HPL UHCAF 2level at 256 cores", "95 GFLOP/s",
          FIGURE1, partial(_gflops, "UHCAF 2level"), (80.0, 110.0)),
    Entry("E5", "HPL 2level over 1level, largest config", "up to 32%",
          FIGURE1, _hpl_gain, (1.2, 1.45),
          quick_cells=FIGURE1_QUICK, quick_band=(1.02, 1.7)),
    Entry("E5", "HPL CAF2.0 GFortran at 256 cores", "29.48 GFLOP/s",
          FIGURE1, partial(_gflops, "CAF2.0 GFortran backend"),
          (20.0, 40.0)),
    Entry("E5", "HPL ordering at the largest config (GFLOP/s)",
          "2lv > CAF2.0-UH > 1lv > GFortran", FIGURE1,
          partial(_ordering, ("UHCAF 2level", "CAF2.0 OpenUH backend",
                              "UHCAF 1level", "CAF2.0 GFortran backend")),
          HOLDS, quick_cells=FIGURE1_QUICK),
    Entry("E5", "UHCAF 2level leads every point; GFortran below half",
          "2level best at every point", FIGURE1,
          partial(_leads, 0.999, 0.5), HOLDS, quick_cells=FIGURE1_QUICK),
    Entry("E6", "notifications per barrier vs §IV-A's closed forms",
          "n·log n vs 2(n−1); TDLB fewer over the wire",
          E6, _closed_forms, HOLDS, quick_cells=E6_QUICK),
    Entry("model", "GASNet same-node over direct-store software cost",
          "the asymmetry two-level removes",
          {}, _conduit_local_gap, (50.0, 500.0), quick_cells={}),
    Entry("model", "MPI remote over same-node software cost",
          "MPI's shared-memory path already knows the node",
          {}, _mpi_transport, (2.0, 10.0), quick_cells={}),
)


# ----------------------------------------------------------------------
# Evaluation and rendering
# ----------------------------------------------------------------------
def _longest_first(task: TaskSpec) -> int:
    # Figure 1's HPL runs are nearly all of the work: the largest start
    # first, so the workers of a pooled report finish together
    return -task.args[0] if getattr(task.fn, "func", None) is hpl_cell else 0


def evaluate(entries: Sequence[Entry], quick: bool = False,
             cache=None) -> List[Claim]:
    """The claims of ``entries``: every cell they read runs once, in one
    :func:`~repro.exec.run_tasks` call through ``cache`` (``REPRO_JOBS``
    workers)."""
    chosen = [(e, e.quick_cells if quick else e.cells) for e in entries]
    chosen = [(e, cells) for e, cells in chosen if cells is not None]
    keyed = [(e, {k: (stable_fingerprint(t), t) for k, t in cells.items()})
             for e, cells in chosen]
    tasks = {fp: t for _, cells in keyed for fp, t in cells.values()}
    order = sorted(tasks, key=lambda fp: _longest_first(tasks[fp]))
    done = dict(zip(order, run_tasks([tasks[fp] for fp in order],
                                     cache=cache)))
    claims = []
    for e, cells in keyed:
        band = (quick and e.quick_band) or e.band
        errors = [f"{t.describe()}: {done[fp].error.splitlines()[0]}"
                  for fp, t in cells.values() if not done[fp].ok]
        if errors:
            claims.append(Claim(e.experiment, e.description, e.paper,
                                f"failed: {errors[0]}", band, math.nan,
                                errors[0]))
            continue
        value, measured = e.check({k: done[fp].value
                                   for k, (fp, _) in cells.items()})
        claims.append(Claim(e.experiment, e.description, e.paper,
                            measured, band, value))
    return claims


def run_report(quick: bool = False, cache=None) -> List[Claim]:
    """Every registry entry's claim (``quick``: the reduced grid)."""
    return evaluate(REGISTRY, quick=quick, cache=cache)


def render_report(claims: List[Claim], title: Optional[str] = None) -> str:
    """Markdown table of paper-vs-measured with verdicts."""
    out = io.StringIO()
    out.write(title or "# Reproduction report: paper vs measured\n")
    out.write("\n")
    out.write("| exp | claim | paper | measured | verdict |\n")
    out.write("|---|---|---|---|---|\n")
    for c in claims:
        verdict = "✅" if c.ok else "❌ OUT OF BAND"
        out.write(f"| {c.experiment} | {c.description} | {c.paper} "
                  f"| {c.measured} | {verdict} |\n")
    failed = [c for c in claims if not c.ok]
    out.write("\n")
    if failed:
        out.write(f"**{len(failed)} claim(s) out of band** — "
                  "see docs/calibration.md for the sensitivity map.\n")
    else:
        out.write("All claims within their acceptance bands.\n")
    return out.getvalue()
