"""Extreme-scale macro-event sweep: 10k–100k flat images.

The macro-event coordinator exists so the simulator can model team
sizes the fine-grained event loop cannot afford — a 10k-image tight
allreduce sweep is ~2.2M engine events fine-grained and ~10k collapsed.
This module sweeps a geometric ladder of flat team sizes (one image per
node, the shape where chained windows sustain collapse) over the three
macro-capable collectives — barrier, reduction, broadcast — and reports
per-shape engine-event counts, the fine/macro event ratio, and the
exactness verdict.  A rung is ``exact`` when the macro run and the
fine-grained run give one :func:`~repro.verify.fingerprint.fingerprint`
apart from the engine event count (end time, every image's result,
traffic, the conduit's per-path message counts, per-resource grants and
queue peaks, the engine's total grant count), and the coordinator
reports no lost bet.

The A/B leg (running the same sweep fine-grained to measure the ratio
and prove bit-exactness) is *bounded*: rungs above ``ab_max`` images run
macro-only, because the fine-grained run is exactly the cost the macro
subsystem exists to avoid.  Those cells report the macro event count
with the exactness column marked ``skipped`` — the contract is still
covered by the A/B rungs below the bound and by the golden-trace tests,
which pin the same window shapes at conformance sizes.

Before betting a 100k-image run on a configuration, every swept shape
is asserted macro-capable through
:func:`repro.collectives.registry.macro_kind`; a config whose strategy
always runs fine-grained fails fast instead of silently simulating two
million events per rung.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..collectives.registry import macro_kind
from ..machine import build_machine, paper_cluster
from ..runtime.config import UHCAF_2LEVEL, RuntimeConfig
from ..runtime.program import run_spmd
from ..sim.engine import Engine
from ..verify.fingerprint import fingerprint
from .tables import ResultTable, Series

__all__ = ["geometric_ladder", "xscale_sweep", "SHAPE_PROGRAMS"]

#: iterations per rung for the chained-window shapes (broadcast runs a
#: single window — chained data windows pin fine by design)
DEFAULT_ITERS = 5


def geometric_ladder(lo: int, hi: int, rungs: int) -> List[int]:
    """``rungs`` image counts from ``lo`` to ``hi``, geometrically spaced
    and rounded to the nearest hundred so the labels read cleanly."""
    if lo <= 0 or hi < lo:
        raise ValueError(f"bad ladder bounds {lo}..{hi}")
    if rungs < 2 or lo == hi:
        return [lo] if lo == hi else [lo, hi][:max(rungs, 1)]
    ratio = (hi / lo) ** (1.0 / (rungs - 1))
    out = []
    for k in range(rungs):
        n = lo * ratio ** k
        n = int(round(n / 100.0) * 100) if n >= 1000 else int(round(n))
        if not out or n > out[-1]:
            out.append(n)
    out[-1] = hi
    return out


# ----------------------------------------------------------------------
# Swept programs — one per macro window shape, flat-team tight loops.
# ----------------------------------------------------------------------
def _barrier_main(ctx, iters):
    for _ in range(iters):
        yield from ctx.sync_all()


def _reduce_main(ctx, iters):
    acc = float(ctx.this_image())
    for _ in range(iters):
        acc = yield from ctx.co_sum(acc * 0.5)
    return acc


def _bcast_main(ctx, iters):
    out = float(ctx.this_image())
    for _ in range(iters):
        out = yield from ctx.co_broadcast(out, source_image=1)
    return out


#: shape name → (collective kind, config field, program, iters)
SHAPE_PROGRAMS = {
    "barrier": ("barrier", "barrier", _barrier_main, DEFAULT_ITERS),
    "reduce": ("reduce", "reduce", _reduce_main, DEFAULT_ITERS),
    "broadcast": ("broadcast", "broadcast", _bcast_main, 1),
}


def assert_macro_capable(config: RuntimeConfig) -> Dict[str, str]:
    """Map each swept shape to its macro window kind, or raise.

    Consults the strategy registry's :func:`macro_kind` so a sweep over
    a non-collapsible configuration dies before the first rung rather
    than after a multi-million-event fine-grained simulation.

    Every variant declares its capability explicitly at registration
    (``macro_kind=None`` for always-fine-grained families like shmwin,
    which never join macro windows and so never bet in the grant
    audit).
    """
    kinds = {}
    for shape, (kind, attr, _main, _iters) in SHAPE_PROGRAMS.items():
        strategy = getattr(config, attr)
        mk = macro_kind(kind, strategy)
        if mk is None:
            raise ValueError(
                f"{kind} strategy {strategy!r} (config {config.name!r}) is "
                "not macro-capable; an extreme-scale sweep would run "
                "fine-grained"
            )
        kinds[shape] = mk
    return kinds


def _run_once(main, num_images: int, iters: int, config: RuntimeConfig,
              macro: bool):
    engine = Engine()
    machine = build_machine(
        engine, paper_cluster(num_images), num_images, images_per_node=1,
    )
    t0 = perf_counter()
    result = run_spmd(main, machine=machine, args=(iters,), config=config,
                      macro_events=macro)
    wall = perf_counter() - t0
    return engine.events_processed, wall, result


def xscale_sweep(
    images: Sequence[int],
    config: RuntimeConfig = UHCAF_2LEVEL,
    ab_max: Optional[int] = 10_000,
    shapes: Optional[Sequence[str]] = None,
    progress=None,
) -> Tuple[ResultTable, List[dict]]:
    """Run the ladder; returns the rendered-ready table plus raw rows.

    ``ab_max`` bounds the fine-grained A/B leg: rungs with more images
    run macro-only and their exactness column reads ``skipped``.  Pass
    ``None`` to A/B every rung (hours at 100k).  ``progress`` is an
    optional callable for per-cell status lines.
    """
    kinds = assert_macro_capable(config)
    shapes = list(shapes or SHAPE_PROGRAMS)
    labels = [f"{n}" for n in images]
    table = ResultTable(
        title=(f"XS: extreme-scale macro sweep, flat teams, "
               f"config {config.name}"),
        labels=labels, unit="mixed",
    )
    rows: List[dict] = []
    series: Dict[str, Series] = {}
    for shape in shapes:
        series[shape, "events"] = Series(
            name=f"{shape} events (macro)", unit="events")
        series[shape, "ratio"] = Series(
            name=f"{shape} fine/macro ratio", unit="x")
        series[shape, "exact"] = Series(
            name=f"{shape} exactness", unit="verdict")

    for n, label in zip(images, labels):
        for shape in shapes:
            kind, _attr, main, iters = SHAPE_PROGRAMS[shape]
            if progress:
                progress(f"[{n} images] {shape} macro ...")
            ev_macro, wall_macro, r_macro = _run_once(
                main, n, iters, config, macro=True)
            stats = r_macro.world.macro
            row = {
                "images": n,
                "shape": shape,
                "macro_kind": kinds[shape],
                "iters": iters,
                "events_macro": ev_macro,
                "wall_macro_s": round(wall_macro, 3),
                "replays": stats.replays,
                "inexact": stats.inexact,
                "disabled_reason": stats.disabled_reason,
            }
            series[shape, "events"].add_text(label, f"{ev_macro:,}")
            if ab_max is not None and n > ab_max:
                row["exactness"] = "skipped"
                series[shape, "exact"].add_text(label, "skipped")
            else:
                if progress:
                    progress(f"[{n} images] {shape} fine ...")
                ev_fine, wall_fine, r_fine = _run_once(
                    main, n, iters, config, macro=False)
                exact = not stats.inexact and (
                    fingerprint(r_fine).without_events()
                    == fingerprint(r_macro).without_events())
                row.update(
                    events_fine=ev_fine,
                    wall_fine_s=round(wall_fine, 3),
                    event_ratio=(round(ev_fine / ev_macro, 1)
                                 if ev_macro else 0.0),
                    exactness="exact" if exact else "DIVERGENT",
                )
                series[shape, "ratio"].add(label, row["event_ratio"])
                series[shape, "exact"].add_text(label, row["exactness"])
            rows.append(row)
    for shape in shapes:
        table.add_series(series[shape, "events"])
        table.add_series(series[shape, "ratio"])
        table.add_series(series[shape, "exact"])
    return table, rows
