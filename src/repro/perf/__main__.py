"""``python -m repro.perf`` — simulation-kernel throughput report.

Runs the kernel microbenchmarks, one end-to-end TDLB barrier sweep, the
macro-event A/Bs and an instrumented stats sample; prints a table and
writes ``BENCH_SIM_KERNEL.json``.

Modes
-----
``--smoke``
    Reduced sizes for CI (a few seconds).  Same schema in the JSON.
``--baseline FILE --min-ratio R``
    Regression gate: exit 2 if the fresh engine-microbenchmark
    events/sec falls below ``R`` × the baseline file's number.
``--harness``
    Benchmark the run *orchestration* instead of the kernel: sequential
    vs pooled quick conformance matrix plus a cold/warm cache cycle
    (see :mod:`repro.perf.harness`), written to ``BENCH_HARNESS.json``.
    ``--min-speedup R`` gates pooled speedup ≥ R — enforced only when
    the machine has ≥ 2 cores and more than one worker was used.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone

from ..machine import build_machine, paper_cluster
from ..sim.engine import Engine
from .bench import (
    bench_burst,
    bench_engine_dispatch,
    bench_macro_barrier,
    bench_macro_bcast,
    bench_macro_reduce,
    bench_sync_kernel,
    bench_tdlb_barrier,
    bench_trampoline,
)
from .stats import run_with_stats

#: Workload sizes per mode.  The engine microbenchmark (``engine_dispatch``)
#: is the headline number the CI gate tracks; its shape (128 concurrent
#: processes) is where the batched heap drain amortizes — the wide-heap
#: regime every ≥ 1k-image experiment lives in.
SIZES = {
    "full": {
        "trampoline": dict(events=400_000, chains=8, repeats=4),
        "engine_dispatch": dict(procs=128, events_per_proc=2_000, repeats=4),
        "burst": dict(procs=128, events_per_proc=2_000, repeats=4),
        "sync_kernel": dict(pairs=8, rounds=4_000, repeats=4),
        "tdlb_barrier": dict(iters=400, num_images=16, images_per_node=8, repeats=3),
        "macro_barrier": dict(iters=10, num_images=1024, repeats=1),
        "macro_reduce": dict(iters=5, num_images=2048, repeats=1),
        "macro_bcast": dict(iters=1, num_images=4096, repeats=1),
    },
    "smoke": {
        "trampoline": dict(events=60_000, chains=8, repeats=2),
        "engine_dispatch": dict(procs=128, events_per_proc=500, repeats=2),
        "burst": dict(procs=128, events_per_proc=500, repeats=2),
        "sync_kernel": dict(pairs=4, rounds=1_000, repeats=2),
        "tdlb_barrier": dict(iters=50, num_images=16, images_per_node=8, repeats=2),
        "macro_barrier": dict(iters=5, num_images=256, repeats=1),
        "macro_reduce": dict(iters=4, num_images=256, repeats=1),
        "macro_bcast": dict(iters=1, num_images=512, repeats=1),
    },
}

_KERNEL_BENCHES = {
    "trampoline": bench_trampoline,
    "engine_dispatch": bench_engine_dispatch,
    "burst": bench_burst,
    "sync_kernel": bench_sync_kernel,
}


def _stats_sample(num_images: int = 16, images_per_node: int = 8,
                  iters: int = 20) -> dict:
    """One small instrumented TDLB run through :func:`run_with_stats`."""
    engine = Engine()
    nodes = -(-num_images // images_per_node)
    machine = build_machine(
        engine, paper_cluster(max(nodes, 1)), num_images,
        images_per_node=images_per_node,
    )

    def main(ctx, n):
        for _ in range(n):
            yield from ctx.sync_all()

    # run_spmd drains the engine itself; to observe the run we spawn the
    # images by hand and let run_with_stats drive the loop instead.
    from ..runtime.program import CafContext, UHCAF_2LEVEL, World
    from ..sim.process import Process

    world = World(machine, UHCAF_2LEVEL)
    for proc in range(machine.num_images):
        Process(engine, main(CafContext(world, proc), iters),
                name=f"image{proc + 1}", actor=proc)
    stats = run_with_stats(engine)
    return stats.as_dict(top=8)


def run_benchmarks(mode: str) -> dict:
    sizes = SIZES[mode]
    benchmarks: dict = {}
    for name, fn in _KERNEL_BENCHES.items():
        benchmarks[name] = fn(**sizes[name]).as_dict()
    benchmarks["tdlb_barrier"] = bench_tdlb_barrier(
        **sizes["tdlb_barrier"]).as_dict()
    benchmarks["tdlb_barrier_stats"] = _stats_sample()
    benchmarks["macro_barrier"] = bench_macro_barrier(**sizes["macro_barrier"])
    benchmarks["macro_reduce"] = bench_macro_reduce(**sizes["macro_reduce"])
    benchmarks["macro_bcast"] = bench_macro_bcast(**sizes["macro_bcast"])
    return benchmarks


def render(payload: dict) -> str:
    lines = [
        "# repro.perf — simulation-kernel throughput "
        f"({payload['mode']}, python {payload['python']})",
        "",
        f"{'benchmark':<18} {'events/s':>12}",
    ]
    for name, entry in payload["benchmarks"].items():
        if "events_per_sec" in entry:
            lines.append(f"{name:<18} {entry['events_per_sec']:>12,.0f}")
    head = payload["headline"]
    lines += [
        "",
        f"engine microbenchmark: {head['engine_events_per_sec']:,.0f} events/s",
    ]
    for key, label in (("macro_barrier", "barrier"),
                       ("macro_reduce", "reduce"),
                       ("macro_bcast", "broadcast")):
        macro = payload["benchmarks"].get(key)
        if not macro:
            continue
        exact = macro["identical_final_time"]
        if "identical_results" in macro:
            exact = exact and macro["identical_results"] \
                and not macro["inexact"]
        agree = "exact" if exact else "DIVERGENT"
        lines.append(
            f"macro-event {label} ({macro['num_images']} images): "
            f"{macro['events_fine']:,} -> {macro['events_macro']:,} engine "
            f"events ({macro['event_ratio']:.0f}x fewer), replay {agree}"
        )
    return "\n".join(lines)


def run_harness_mode(args) -> int:
    """``--harness``: A/B the exec pool + cache, write BENCH_HARNESS.json."""
    from .harness import DEFAULT_SEEDS, bench_harness, render_harness

    entry = bench_harness(jobs=args.jobs,
                          seeds=args.seeds or DEFAULT_SEEDS)
    payload = {
        "schema": "repro.perf/bench_harness/v1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "harness": entry,
    }
    out = args.out
    if out == "BENCH_SIM_KERNEL.json":  # the kernel-mode default
        out = "BENCH_HARNESS.json"
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(render_harness(entry))
    print(f"\nwrote {out}")

    if not entry["identical_results"]:
        print("FAIL: pooled results differ from sequential", file=sys.stderr)
        return 2
    if args.min_speedup is not None:
        if entry["cpu_count"] < 2 or entry["jobs"] < 2:
            print(f"speedup gate skipped: {entry['cpu_count']} core(s), "
                  f"{entry['jobs']} job(s) — nothing to fan out over")
        elif entry["speedup"] < args.min_speedup:
            print(f"FAIL: pooled speedup {entry['speedup']:.2f}x below the "
                  f"{args.min_speedup:.2f}x gate", file=sys.stderr)
            return 2
        else:
            print(f"speedup gate: {entry['speedup']:.2f}x >= "
                  f"{args.min_speedup:.2f}x ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for CI (seconds, same JSON schema)")
    parser.add_argument("-o", "--out", default="BENCH_SIM_KERNEL.json",
                        help="where to write the JSON (default: repo root/cwd)")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_SIM_KERNEL.json to gate against")
    parser.add_argument("--min-ratio", type=float, default=0.7,
                        help="fail if fresh/baseline events/sec < this (default 0.7)")
    parser.add_argument("--harness", action="store_true",
                        help="benchmark the exec worker pool + result cache "
                             "instead of the simulation kernel")
    parser.add_argument("-j", "--jobs", default="auto",
                        help="harness mode: worker processes, an integer or "
                             "'auto' (default auto)")
    parser.add_argument("--seeds", type=int, default=None,
                        help="harness mode: fuzz seeds per case (default: "
                             "enough for a multi-second sequential baseline)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="harness mode: fail if pooled speedup < this "
                             "(only enforced on multi-core, multi-worker runs)")
    args = parser.parse_args(argv)

    if args.harness:
        return run_harness_mode(args)

    mode = "smoke" if args.smoke else "full"
    benchmarks = run_benchmarks(mode)
    engine_entry = benchmarks["engine_dispatch"]
    payload = {
        "schema": "repro.perf/bench_sim_kernel/v1",
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "benchmarks": benchmarks,
        "headline": {
            "engine_events_per_sec": engine_entry["events_per_sec"],
            "macro_event_ratio": benchmarks["macro_barrier"]["event_ratio"],
            "macro_identical_final_time":
                benchmarks["macro_barrier"]["identical_final_time"],
            "macro_reduce_event_ratio":
                benchmarks["macro_reduce"]["event_ratio"],
            "macro_reduce_exact":
                benchmarks["macro_reduce"]["identical_final_time"]
                and benchmarks["macro_reduce"]["identical_results"]
                and not benchmarks["macro_reduce"]["inexact"],
            "macro_bcast_exact":
                benchmarks["macro_bcast"]["identical_final_time"]
                and benchmarks["macro_bcast"]["identical_results"]
                and not benchmarks["macro_bcast"]["inexact"],
        },
    }

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(render(payload))
    print(f"\nwrote {args.out}")

    if not benchmarks["macro_barrier"]["identical_final_time"]:
        print("FAIL: macro-event barrier final time diverges from "
              "fine-grained mode", file=sys.stderr)
        return 2
    # The reduce/broadcast windows carry data, so the exactness gate is
    # stricter: identical final time, bit-identical per-image results,
    # and the coordinator's own inexact flag must stay clear.
    for key in ("macro_reduce", "macro_bcast"):
        entry = benchmarks[key]
        if (not entry["identical_final_time"]
                or not entry["identical_results"] or entry["inexact"]):
            print(f"FAIL: {key} macro replay diverges from fine-grained "
                  "mode", file=sys.stderr)
            return 2
    if benchmarks["macro_reduce"]["replays"] < benchmarks["macro_reduce"]["iters"]:
        print("FAIL: macro_reduce chained windows pinned fine "
              f"(replays={benchmarks['macro_reduce']['replays']} < "
              f"iters={benchmarks['macro_reduce']['iters']})", file=sys.stderr)
        return 2
    if args.baseline:
        with open(args.baseline) as fh:
            base = json.load(fh)
        base_eps = base["headline"]["engine_events_per_sec"]
        fresh_eps = payload["headline"]["engine_events_per_sec"]
        ratio = fresh_eps / base_eps if base_eps else float("inf")
        print(f"regression gate: fresh {fresh_eps:,.0f} ev/s vs baseline "
              f"{base_eps:,.0f} ev/s -> ratio {ratio:.2f} "
              f"(min {args.min_ratio:.2f})")
        if ratio < args.min_ratio:
            print("FAIL: engine throughput regressed past the gate",
                  file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
