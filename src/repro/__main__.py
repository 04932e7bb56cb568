"""``python -m repro`` — the reproduction report.

Evaluates every claim of :data:`repro.report.REGISTRY` — the E1–E6
headlines, payload-sweep rules and closed forms, Figure 1, and the
model's constant checks — and prints the paper-vs-measured markdown
table.  All cells run in one sweep through the result cache under
``.repro-cache/``, fanned across ``REPRO_JOBS`` worker processes, so an
unchanged re-run is served from the cache; the last line printed says
how many cells were.  Use ``--quick`` for the reduced grid, ``-o FILE``
to write the report to disk.  Exits 1 if any claim is out of band.  For
individual experiment tables use ``python -m repro.bench``; ``pytest
benchmarks`` prints every table and checks the same claims.
"""

from __future__ import annotations

import argparse
import sys

from .exec import ResultCache
from .report import render_report, run_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid (seconds instead of a minute)")
    parser.add_argument("-o", "--output", default=None,
                        help="write the markdown report to this file")
    args = parser.parse_args(argv)

    cache = ResultCache()
    claims = run_report(quick=args.quick, cache=cache)
    text = render_report(claims)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    cells = cache.hits + cache.misses + cache.unkeyed
    print(f"cache: {cache.hits}/{cells} cell(s) served from {cache.root}")
    return 0 if all(c.ok for c in claims) else 1


if __name__ == "__main__":
    sys.exit(main())
