"""perfbench: host wall time per simulated operation on the paper's workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fine352 --seed 1 --seconds 10 --trace 0
    python3 -m perfbench --seed 1 --out results.json   # every workload
    python3 -m perfbench --trace 1 --out trace.json    # per-layer attribution
    python3 -m perfbench --regen-golden                # rewrite golden.json

One workload run measures for ``--seconds``: a closed loop of
repetitions, each started when the previous one ended, after set-up
samples and a warm-up on a small shape.  Every repetition's outputs are
checked against ``golden.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count the
output checks, and ``metrics`` holds the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  The lines before it give each metric's median,
quartiles and sample count.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
GOLDEN = HERE / "golden.json"
#: working space for caches and per-workload result files (gitignored)
WORK = ROOT / ".perfbench"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never another copy."""
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {ROOT / 'src'}")


def quartiles(values: List[float]):
    """``(median, q1, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


class Tally:
    """Output checks attempted and failed, by check name."""

    def __init__(self):
        self.by_name: Dict[str, List[int]] = {}

    def add(self, checks) -> None:
        for name, ok in checks:
            entry = self.by_name.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += 0 if ok else 1

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.by_name.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.by_name.values())


def sample_setup(workload) -> List[float]:
    """At least 10 set-up samples, more (up to 100) while under 1 s."""
    samples: List[float] = []
    start = time.perf_counter()
    while len(samples) < 10 or (time.perf_counter() - start < 1.0
                                and len(samples) < 100):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - t0)
    return samples


def calibration_loop() -> int:
    """A fixed pure-Python discrete-event loop (about 8 ms on a 2.1 GHz
    Xeon): generator processes resumed off a heap, plus dict traffic --
    the interpreter work the simulator does.  ``op_cost`` is measured in
    units of this loop's run time, so do not change it."""
    box: Dict[tuple, int] = {}

    def process(i):
        for k in range(40):
            box[i, k & 3] = k
            yield 1.0 + (i * 7 + k) % 5

    procs = [process(i) for i in range(250)]
    heap = [(0.0, i, i) for i in range(len(procs))]
    heapq.heapify(heap)
    resumed = 0
    while heap:
        t, _, i = heapq.heappop(heap)
        try:
            dt = next(procs[i])
        except StopIteration:
            continue
        resumed += 1
        heapq.heappush(heap, (t + dt, resumed + len(procs), i))
    return resumed


def calibrate() -> List[float]:
    """Three timings of :func:`calibration_loop`."""
    out = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop()
        out.append(time.perf_counter() - t0)
    return out


def timed_run(workload):
    gc.collect()
    t0 = time.perf_counter()
    raw = workload.run()
    return raw, time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, trace: bool, jobs: int,
            workdir: Path, golden: Optional[dict] = None,
            shape: Optional[dict] = None) -> dict:
    """Run one workload and return its record: the result object plus
    ``samples`` (per-repetition values), ``checks`` and, traced,
    ``edges``.  ``golden``/``shape`` override the committed golden
    entry and the workload's default sizes (the self-tests use both)."""
    from perfbench import layers, workloads

    factory, key = workloads.WORKLOADS[name]
    if golden is None:
        golden = load_golden()[key]
    workload = factory(seed, golden, jobs, workdir, **(shape or {}))
    spec = load_spec()
    tally = Tally()
    tally.add(workload.warmup())
    samples: Dict[str, List[float]] = {}
    values: Dict[str, float] = {}
    record: dict = {}

    if not trace:
        samples["setup_s"] = sample_setup(workload)
        # one untimed full-size repetition: the first one pays for
        # growing the heap (20% slower on xscale3k), the later ones reuse it
        tally.add(workload.inspect(workload.run()).checks)
        deadline = time.perf_counter() + seconds
        walls: List[float] = []
        costs: List[float] = []
        drift = 0.0
        before = calibrate()
        while not walls or time.perf_counter() < deadline:
            raw, wall = timed_run(workload)
            after = calibrate()
            rep = workload.inspect(raw)
            tally.add(rep.checks)
            walls.append(wall / rep.ops * 1e6)
            # the host's speed drifts by tens of percent over seconds on a
            # shared machine; the calibration loop run on either side of
            # the repetition tracks it
            costs.append(wall / rep.ops / statistics.median(before + after))
            before = after
            drift = max(drift, rep.drift_ns)
        samples["op_wall_us"] = walls
        samples["op_cost"] = costs
        values = {m: quartiles(samples[m])[0] for m in samples}
        values["peak_rss_mb"] = peak_rss_mb()
        record["sim_drift_ns"] = drift
        wanted = spec["end_to_end"]
    else:
        deadline = time.perf_counter() + seconds
        raw, base_wall = timed_run(workload)
        ref = workload.inspect(raw)
        tally.add(ref.checks)
        self_s = dict.fromkeys(layers.LAYERS, 0.0)
        edges: Dict[tuple, list] = {}
        overheads: List[float] = []
        while not overheads or time.perf_counter() < deadline:
            profile = cProfile.Profile()
            gc.collect()
            t0 = time.perf_counter()
            profile.enable()
            raw = workload.run(1)
            profile.disable()
            overheads.append((time.perf_counter() - t0) / base_wall)
            rep = workload.inspect(raw)
            tally.add(rep.checks)
            tally.add([("trace_identical", rep.signature == ref.signature)])
            layer_s, layer_edges = layers.attribute(profile)
            for layer, s in layer_s.items():
                self_s[layer] += s
            for pair, (calls, s) in layer_edges.items():
                edge = edges.setdefault(pair, [0, 0.0])
                edge[0] += calls
                edge[1] += s
        n = len(overheads)
        total = sum(self_s.values()) or 1.0
        for layer, s in self_s.items():
            values[f"{layer}.self_s"] = s / n
            values[f"{layer}.share"] = s / total
        values.update({m["name"]: 0 for m in spec["per_layer"]
                       if m["name"] not in values})
        values.update(ref.counts)
        samples["trace.overhead"] = overheads
        values["trace.overhead"] = quartiles(overheads)[0]
        values["fidelity.sim_drift_ns"] = ref.drift_ns
        record["sim_drift_ns"] = ref.drift_ns
        record["edges"] = sorted(
            ([src, dst, calls // n, s / n] for (src, dst), (calls, s) in edges.items()),
            key=lambda e: -e[3])
        wanted = spec["per_layer"]

    record.update({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "samples": samples,
        "checks": tally.by_name,
    })
    return record


RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def report(name: str, record: dict) -> None:
    """Human-readable lines for one workload's record."""
    print(f"== {name}")
    shown = dict(record["metrics"])
    if "op_wall_us" in record["samples"]:  # reported, not gated: see README
        shown["op_wall_us"] = {"value": quartiles(record["samples"]["op_wall_us"])[0],
                               "unit": "us"}
    for metric, entry in shown.items():
        line = f"  {metric:28s} {entry['value']:>16.6g} {entry['unit']}"
        if metric in record["samples"]:
            med, q1, q3 = quartiles(record["samples"][metric])
            line += (f"   median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                     f"  n {len(record['samples'][metric])}")
        print(line)
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':28s} {rate:>16.6g}   "
          f"({record['failed']} of {record['attempted']} checks failed)")
    print(f"  {'sim_drift_ns':28s} {record['sim_drift_ns']:>16.6g} ns")
    for check, (attempted, failed) in sorted(record["checks"].items()):
        if failed:
            print(f"  FAILED {check}: {failed} of {attempted}")
    for src, dst, calls, s in record.get("edges", [])[:12]:
        print(f"  edge {src:>11s} -> {dst:<11s} {calls:>10d} calls {s:10.4f} s")


def run_all(args, names: List[str]) -> int:
    """Every workload in its own process, so peak RSS is its own."""
    WORK.mkdir(exist_ok=True)
    merged: Dict[str, dict] = {}
    status = 0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--jobs", str(args.jobs),
                   "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout.rsplit("\n", 2)[0] if proc.stdout else "", flush=True)
            if proc.returncode != 0 or not out.exists():
                print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            merged.update(json.loads(out.read_text())["workloads"])
            status |= 0 if merged[name]["correct"] else 1
    if args.out:
        Path(args.out).write_text(json.dumps({"workloads": merged}, indent=1) + "\n")
    return status


def regen_golden() -> None:
    from perfbench import workloads

    golden: Dict[str, dict] = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name, (factory, key) in workloads.WORKLOADS.items():
            if key in golden:
                continue
            t0 = time.perf_counter()
            golden[key] = factory(1234, None, 1, Path(tmp)).reference()
            print(f"{key}: {time.perf_counter() - t0:.1f} s", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=2,
                        help="workers for the tables workloads")
    parser.add_argument("--out", help="also write the records here as JSON")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute perfbench/golden.json")
    args = parser.parse_args(argv)

    use_checkout_source()
    if args.regen_golden:
        regen_golden()
        return 0
    if args.workload is None:
        return run_all(args, names)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.jobs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, record)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"workloads": {args.workload: record}}, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in RESULT_KEYS}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
