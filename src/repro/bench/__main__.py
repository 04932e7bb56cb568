"""Command-line front end for the reproduction's experiment suite.

    python -m repro.bench barrier            # E1 + E2 tables
    python -m repro.bench reduce             # E3
    python -m repro.bench broadcast          # E4
    python -m repro.bench hpl                # E5 (Figure 1; ~1 min)
    python -m repro.bench hpl --quick        # reduced Figure 1
    python -m repro.bench all                # everything above
    python -m repro.bench all -j auto        # sweep cells in parallel
    python -m repro.bench xscale             # 10k-image macro-event sweep
    python -m repro.bench xscale --images 10000..100000 --rungs 3
                                             # extreme-scale ladder; rungs
                                             # above --ab-max run macro-only
    python -m repro.bench tournament         # algorithm tournament: full
                                             # grid, crossover table,
                                             # TOURNAMENT.json + tuned gate
    python -m repro.bench tournament --quick # PR-sized grid (2 shapes)

(The ablation experiments E6–E12 live in ``benchmarks/`` and run under
``pytest benchmarks/ -s``; ``python -m repro`` checks the paper's
claims.)

Every sweep cell is an independent simulation, so ``-j``/``--jobs``
(or ``REPRO_JOBS=auto``) fans them across worker processes, Figure 1's
HPL runs included; tables are identical to a sequential run.  The cell
callables are module-level partials — picklable on purpose, so they
actually reach the workers.
"""

from __future__ import annotations

import argparse
import sys

from .cells import plan_experiment, plan_tasks, render_results
from .hplbench import figure1
from .xscale import geometric_ladder, xscale_sweep


def _run_experiment(experiment: str, nodes: list[int], ipn: int,
                    nelems: int, jobs=None) -> None:
    from ..exec import run_tasks

    plans = plan_experiment(experiment, nodes, ipn=ipn, nelems=nelems)
    print(render_results(plans, run_tasks(plan_tasks(plans), jobs=jobs)))


def _parse_images_spec(spec: str) -> list[int]:
    """``10000..100000`` (geometric, see ``--rungs``), ``a,b,c``, or one
    integer.  Returns the explicit list for the list/single forms and an
    empty list for the range form (the caller ladders it)."""
    if ".." in spec:
        return []
    if "," in spec:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    return [int(spec)]


def _run_tournament(args) -> int:
    from .tournament import (
        QUICK_SHAPES,
        render_crossover,
        run_tournament,
        write_tournament_json,
    )

    shapes = None
    if args.shapes:
        shapes = [tok for tok in args.shapes.split(",") if tok.strip()]
    elif args.quick:
        shapes = list(QUICK_SHAPES)
    bands = None
    if args.payloads:
        bands = [tok for tok in args.payloads.split(",") if tok.strip()]
    doc = run_tournament(
        shapes=shapes, bands=bands, iters=args.iters, jobs=args.jobs,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    print(render_crossover(doc))
    if args.tournament_json:
        write_tournament_json(doc, args.tournament_json)
        print(f"\nwrote {args.tournament_json}")
    # Hard gate: tuned dispatch must never lose to a hand-picked fixed
    # algorithm (selection is zero-cost, so a loss means broken dispatch).
    eps = 1e-9
    tuned = doc["tuned"]
    failed = False
    for label, speedup in (("best single fixed",
                            tuned["speedup_vs_best_fixed"]),
                           ("two-level default",
                            tuned["speedup_vs_default"])):
        if speedup < 1.0 - eps:
            print(f"FAIL: tuned dispatch is {speedup:.4f}x the {label} "
                  "(must be >= 1.0x)", file=sys.stderr)
            failed = True
    return 2 if failed else 0


def _run_xscale(args) -> int:
    spec = args.images
    explicit = _parse_images_spec(spec)
    if explicit:
        images = explicit
    else:
        lo, hi = (int(tok) for tok in spec.split("..", 1))
        images = geometric_ladder(lo, hi, args.rungs)
    ab_max = None if args.ab_max == 0 else args.ab_max
    table, rows = xscale_sweep(images, ab_max=ab_max,
                               progress=lambda msg: print(f"  {msg}",
                                                          file=sys.stderr))
    print(table.render())
    if args.xscale_json:
        import json
        with open(args.xscale_json, "w") as fh:
            json.dump({"schema": "repro.bench/xscale/v1", "rows": rows},
                      fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.xscale_json}")
    bad = [r for r in rows if r.get("exactness") == "DIVERGENT"]
    if bad:
        for r in bad:
            print(f"FAIL: {r['shape']} @ {r['images']} images diverged "
                  f"(reason={r['disabled_reason']})", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment",
                        choices=["barrier", "reduce", "broadcast", "hpl",
                                 "xscale", "tournament", "all"])
    parser.add_argument("--nodes", type=int, nargs="+", default=[2, 8, 16, 44],
                        help="node counts to sweep (default: 2 8 16 44)")
    parser.add_argument("--ipn", type=int, default=8,
                        help="images per node (default 8, the paper's)")
    parser.add_argument("--nelems", type=int, default=1,
                        help="payload elements for reduce/broadcast")
    parser.add_argument("--quick", action="store_true",
                        help="reduced HPL sweep (smaller N, fewer points)")
    parser.add_argument("-j", "--jobs", default=None,
                        help="worker processes for sweep cells: an integer "
                             "or 'auto' (default: REPRO_JOBS env, else 1)")
    parser.add_argument("--images", default="10000",
                        help="xscale mode: image-count ladder — one integer, "
                             "a comma list, or MIN..MAX (geometric, see "
                             "--rungs); default 10000")
    parser.add_argument("--rungs", type=int, default=3,
                        help="xscale mode: rungs in a MIN..MAX ladder "
                             "(default 3)")
    parser.add_argument("--ab-max", type=int, default=10_000,
                        help="xscale mode: largest rung that also runs the "
                             "fine-grained A/B leg (default 10000; 0 = A/B "
                             "every rung).  Larger rungs run macro-only with "
                             "exactness 'skipped'.")
    parser.add_argument("--xscale-json", default=None,
                        help="xscale mode: also write raw sweep rows to this "
                             "JSON file (CI artifact)")
    parser.add_argument("--shapes", default=None,
                        help="tournament mode: comma list of conformance "
                             "shape names (default: all 8; --quick: 2)")
    parser.add_argument("--payloads", default=None,
                        help="tournament mode: comma list of payload bands "
                             "(small,medium,large; default: all)")
    parser.add_argument("--iters", type=int, default=5,
                        help="tournament mode: timed ops per cell "
                             "(default 5)")
    parser.add_argument("--tournament-json", default="TOURNAMENT.json",
                        help="tournament mode: crossover-table artifact "
                             "path (default TOURNAMENT.json; '' disables)")
    args = parser.parse_args(argv)

    if args.experiment == "tournament":
        return _run_tournament(args)

    if args.experiment == "xscale":
        # macro-only cells at 100k images are single giant simulations —
        # the per-cell memory footprint is the constraint, not CPU, so
        # xscale runs sequentially and ignores -j.
        return _run_xscale(args)

    for experiment in ("barrier", "reduce", "broadcast"):
        if args.experiment in (experiment, "all"):
            _run_experiment(experiment, args.nodes, args.ipn, args.nelems,
                            jobs=args.jobs)
            print()
    if args.experiment in ("hpl", "all"):
        table = figure1(quick=args.quick, jobs=args.jobs)
        print(table.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
