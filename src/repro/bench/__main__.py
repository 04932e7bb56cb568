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

(The ablation experiments E6–E12 live in ``benchmarks/`` and run under
``pytest benchmarks/ -s``; ``python -m repro`` checks the paper's
claims.)

Every sweep cell is an independent simulation, so ``-j``/``--jobs``
(or ``REPRO_JOBS=auto``) fans them across worker processes, Figure 1's
HPL runs included; tables are identical to a sequential run.  The cell
callables are module-level partials — picklable on purpose, so they
actually reach the workers.  Cells go through the result cache under
``.repro-cache/``, the one ``python -m repro`` fills, so a cell either
command already simulated is not simulated again.
"""

from __future__ import annotations

import argparse
import sys

from ..exec import ResultCache, run_tasks
from .cells import plan_experiment, plan_tasks, render_results
from .hplbench import figure1
from .xscale import geometric_ladder, xscale_sweep


def _run_experiment(experiment: str, nodes: list[int], ipn: int,
                    nelems: int, jobs, cache: ResultCache) -> None:
    plans = plan_experiment(experiment, nodes, ipn=ipn, nelems=nelems)
    print(render_results(plans, run_tasks(plan_tasks(plans), jobs=jobs,
                                          cache=cache)))


def _parse_images_spec(spec: str) -> list[int]:
    """``10000..100000`` (geometric, see ``--rungs``), ``a,b,c``, or one
    integer.  Returns the explicit list for the list/single forms and an
    empty list for the range form (the caller ladders it)."""
    if ".." in spec:
        return []
    if "," in spec:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    return [int(spec)]


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
                                 "xscale", "all"])
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
    args = parser.parse_args(argv)

    if args.experiment == "xscale":
        # macro-only cells at 100k images are single giant simulations —
        # the per-cell memory footprint is the constraint, not CPU, so
        # xscale runs sequentially and ignores -j.
        return _run_xscale(args)

    cache = ResultCache()
    for experiment in ("barrier", "reduce", "broadcast"):
        if args.experiment in (experiment, "all"):
            _run_experiment(experiment, args.nodes, args.ipn, args.nelems,
                            args.jobs, cache)
            print()
    if args.experiment in ("hpl", "all"):
        table = figure1(quick=args.quick, jobs=args.jobs, cache=cache)
        print(table.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
