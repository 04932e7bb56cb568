"""The benchmark's workloads: seeded inputs, the programs, output checks.

Every workload drives the simulator only through its public entry
points (``run_spmd``, ``hpl_main``/``run_hpl``, ``cg_solve``, the bench
cell plans, ``run_tasks`` and ``ResultCache``) and reads counters only
from public objects after a run.  Shapes are constructor arguments so
the self-tests can run every workload small.

A workload object offers:

* ``setup()`` -- one sample of the set-up a user pays before the first
  operation (timed by the caller);
* ``warmup()`` -- the same program on a small shape, run before timing;
  returns checks, like ``run``;
* ``run(jobs=None)`` -- one repetition, the part that is timed;
* ``inspect(raw)`` -- checks and counters of what ``run`` returned, as
  a :class:`Rep`;
* ``reference()`` -- the golden entry for this shape (see ``golden.json``).
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import run_spmd
from repro.apps.cg import cg_solve
from repro.bench.cells import plan_experiment, plan_tasks, render_results
from repro.exec import ResultCache, TaskSpec, run_tasks
from repro.hpl import hpl_main, run_hpl
from repro.machine import build_machine, paper_cluster
from repro.sim import Engine

#: seeds whose inputs ``--regen-golden`` runs to show simulated outputs
#: do not depend on the seed
GOLDEN_SEEDS = (1234, 99)

Checks = List[Tuple[str, bool]]


@dataclass
class Rep:
    """What one repetition produced."""

    #: simulated operations in the repetition
    ops: int
    #: everything simulated the repetition produced (end time, per-image
    #: results, traffic); traced and untraced runs must agree on it
    signature: tuple
    checks: Checks
    #: per-layer counters read after the run (see :func:`spmd_counts`)
    counts: Dict[str, float] = field(default_factory=dict)
    #: |default-path end time - fine-grained reference| in ns
    drift_ns: float = 0.0


def digest(obj) -> str:
    """Stable digest of a picklable result structure."""
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


def traffic_list(traffic) -> List[int]:
    return [traffic.inter_messages, traffic.inter_bytes,
            traffic.intra_messages, traffic.intra_bytes]


def _empty_main(ctx):
    yield from ()


def _resources(world) -> list:
    machine = world.machine
    spec = machine.spec
    out = []
    for node in range(spec.num_nodes):
        out.append(world.conduit.progress_engine(node))
        out.append(machine.interconnect.nic(node))
        out.extend(machine.shared_memory.bus(node, s)
                   for s in range(spec.node.sockets))
    return out


def spmd_counts(result, ops: int) -> Dict[str, float]:
    """Per-layer counters of one ``run_spmd`` result, per simulated op."""
    world = result.world
    conduit = world.conduit.counts
    traffic = result.traffic
    macro = world.macro
    resources = _resources(world)
    return {
        "engine.events_per_op": world.engine.events_processed / ops,
        "conduit.remote_per_op": conduit["remote"] / ops,
        "conduit.loopback_per_op": conduit["loopback"] / ops,
        "conduit.direct_per_op": conduit["direct"] / ops,
        "machine.inter_msgs_per_op": traffic.inter_messages / ops,
        "machine.inter_bytes_per_op": traffic.inter_bytes / ops,
        "machine.intra_msgs_per_op": traffic.intra_messages / ops,
        "machine.intra_bytes_per_op": traffic.intra_bytes / ops,
        "machine.grants_per_op": sum(r.total_grants for r in resources) / ops,
        "machine.peak_queue": max(r.peak_queue for r in resources),
        "macro.replays": macro.replays,
        "macro.fine_pins": macro.fine_pins,
        "macro.demotions": macro.demotions,
        "macro.wake_events": macro.wake_events,
        "macro.inexact": int(macro.inexact),
        "macro.collapse_ratio": macro.replays / ops,
    }


class SpmdWorkload:
    """A workload whose repetition is one ``run_spmd`` call."""

    def __init__(self, seed: int, golden: Optional[dict], images: int,
                 ipn: int):
        self.seed = seed
        self.golden = golden
        self.images = images
        self.ipn = ipn

    # -- to fill in ----------------------------------------------------
    ops = 0

    def simulate(self, macro_events: Optional[bool] = None):
        """One ``SpmdResult`` of the workload's program."""
        raise NotImplementedError

    def output_checks(self, result) -> Checks:
        """Seed-independent checks of the per-image results."""
        raise NotImplementedError

    def warmup(self) -> Checks:
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def setup(self) -> None:
        nodes = -(-self.images // self.ipn)
        machine = build_machine(Engine(), paper_cluster(nodes), self.images,
                                images_per_node=self.ipn)
        run_spmd(_empty_main, machine=machine)

    def golden_checks(self, result) -> Tuple[Checks, float]:
        drift = abs(result.time - self.golden["ref_time"]) * 1e9
        return [
            ("traffic", traffic_list(result.traffic) == self.golden["traffic"]),
            ("drift", drift <= self.golden["max_drift_ns"]),
        ], drift

    def run(self, jobs: Optional[int] = None):
        return self.simulate()

    def inspect(self, result) -> Rep:
        checks, drift = self.golden_checks(result)
        return Rep(
            ops=self.ops,
            signature=(result.time, traffic_list(result.traffic),
                       digest(result.results)),
            checks=self.output_checks(result) + checks,
            counts=spmd_counts(result, self.ops),
            drift_ns=drift,
        )

    def reference(self) -> dict:
        """Fine-grained end time and traffic, and the drift the default
        path shows against them, checked equal for every golden seed."""
        fine = self.simulate(macro_events=False)
        entry = {"ref_time": fine.time, "traffic": traffic_list(fine.traffic)}
        runs = [type(self)(seed, None, **self.shape()).simulate()
                for seed in GOLDEN_SEEDS]
        for other in runs:
            if (other.time != runs[0].time
                    or other.traffic != fine.traffic):
                raise AssertionError(
                    f"{type(self).__name__}: simulated outputs depend on "
                    "the seed, or macro-events changed the traffic")
        entry["max_drift_ns"] = abs(runs[0].time - fine.time) * 1e9
        entry.update(self.reference_extra(runs))
        return entry

    def reference_extra(self, runs) -> dict:
        return {}

    def shape(self) -> dict:
        return {"images": self.images, "ipn": self.ipn}


# ----------------------------------------------------------------------
# fine352 / xscale3k: chains of barrier, reduction and broadcast
# ----------------------------------------------------------------------
def collectives_main(ctx, kinds, values):
    """``kinds`` letters: ``s`` sync all, ``r`` co_sum, ``b`` co_broadcast
    from image 1.  ``values[k][i]`` is image ``i+1``'s input to op ``k``."""
    me = ctx.this_image()
    out = []
    for kind, row in zip(kinds, values):
        if kind == "s":
            yield from ctx.sync_all()
        elif kind == "r":
            out.append((yield from ctx.co_sum(row[me - 1])))
        else:
            out.append((yield from ctx.co_broadcast(row[me - 1], source_image=1)))
    return out


class Collectives(SpmdWorkload):
    def __init__(self, seed: int, golden: Optional[dict], images: int,
                 ipn: int, kinds: str):
        super().__init__(seed, golden, images, ipn)
        self.kinds = kinds
        self.ops = len(kinds)
        rng = np.random.default_rng(seed)
        # one-element int64 arrays, like E3/E4's one-element payloads, with
        # integer values so every sum is exact in any combine order
        self.values = rng.integers(-2**20, 2**20, size=(len(kinds), images, 1))

    def shape(self) -> dict:
        return {**super().shape(), "kinds": self.kinds}

    def simulate(self, macro_events=None):
        return run_spmd(collectives_main, num_images=self.images,
                        images_per_node=self.ipn, macro_events=macro_events,
                        args=(self.kinds, self.values))

    def output_checks(self, result) -> Checks:
        """Exact integer ``co_sum`` and the source's value out of
        ``co_broadcast``, on every image."""
        want = [(kind, int(self.values[k].sum()) if kind == "r"
                 else int(self.values[k][0][0]))
                for k, kind in enumerate(self.kinds) if kind != "s"]
        ok = {"r": True, "b": True}
        for got in result.results:
            if len(got) != len(want):
                ok = {"r": False, "b": False}
                break
            for (kind, value), out in zip(want, got):
                if out.shape != (1,) or int(out[0]) != value:
                    ok[kind] = False
        return [(name, ok[kind]) for kind, name in
                (("r", "co_sum"), ("b", "co_broadcast")) if kind in self.kinds]

    def warmup(self) -> Checks:
        small = Collectives(self.seed, None, min(self.images, 64), self.ipn,
                            self.kinds[:6])
        return small.output_checks(small.simulate())


# ----------------------------------------------------------------------
# cg128: conjugate gradient, one-sided puts + sync images + co_sum
# ----------------------------------------------------------------------
def cg_main(ctx, b, iters):
    x, done, _residual = yield from cg_solve(ctx, b, max_iters=iters, tol=0.0)
    return x, done


def sequential_cg(b: np.ndarray, iters: int) -> np.ndarray:
    """The same CG iteration on one process, for checking."""
    def apply(v):
        y = 2.0 * v
        y[1:] -= v[:-1]
        y[:-1] -= v[1:]
        return y

    x = np.zeros_like(b)
    r = b - apply(x)
    p = r.copy()
    rs = r @ r
    for _ in range(iters):
        ap = apply(p)
        alpha = rs / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


class ConjugateGradient(SpmdWorkload):
    def __init__(self, seed: int, golden: Optional[dict], images: int,
                 ipn: int, unknowns: int, iters: int):
        super().__init__(seed, golden, images, ipn)
        self.unknowns = unknowns
        self.ops = iters
        self.b = np.random.default_rng(seed).standard_normal(unknowns)
        self._expected = None

    def shape(self) -> dict:
        return {**super().shape(), "unknowns": self.unknowns,
                "iters": self.ops}

    def simulate(self, macro_events=None):
        return run_spmd(cg_main, num_images=self.images,
                        images_per_node=self.ipn, macro_events=macro_events,
                        args=(self.b, self.ops))

    def output_checks(self, result) -> Checks:
        if self._expected is None:
            self._expected = sequential_cg(self.b, self.ops)
        x = np.concatenate([res[0] for res in result.results])
        return [
            ("cg_iters", all(res[1] == self.ops for res in result.results)),
            ("cg_x", x.shape == self._expected.shape
             and np.allclose(x, self._expected, rtol=1e-8, atol=0.0)),
        ]

    def warmup(self) -> Checks:
        small = ConjugateGradient(self.seed, None, 2 * self.ipn, self.ipn,
                                  32 * self.ipn, 5)
        return small.output_checks(small.simulate())


# ----------------------------------------------------------------------
# hpl64: LU factorization on row/column sub-teams, real NumPy compute
# ----------------------------------------------------------------------
def hpl_program(ctx, n, nb, seed):
    report = yield from hpl_main(ctx, n, nb, seed=seed)
    return report


class Hpl(SpmdWorkload):
    def __init__(self, seed: int, golden: Optional[dict], images: int,
                 ipn: int, n: int, nb: int):
        super().__init__(seed, golden, images, ipn)
        self.n = n
        self.nb = nb
        self.ops = -(-n // nb)  # panel steps
        # HPL draws its matrix from this seed inside the program
        self.matrix_seed = int(np.random.default_rng(seed).integers(2**31))

    def shape(self) -> dict:
        return {**super().shape(), "n": self.n, "nb": self.nb}

    def simulate(self, macro_events=None):
        return run_spmd(hpl_program, num_images=self.images,
                        images_per_node=self.ipn, macro_events=macro_events,
                        args=(self.n, self.nb, self.matrix_seed))

    def output_checks(self, result) -> Checks:
        report = result.results[0]
        return [("hpl_time", report.seconds == self.golden["seconds"]
                 and report.gflops == self.golden["gflops"])]

    def reference_extra(self, runs) -> dict:
        reports = [r.results[0] for r in runs]
        if any((r.seconds, r.gflops) != (reports[0].seconds, reports[0].gflops)
               for r in reports):
            raise AssertionError("HPL seconds/GFLOP/s depend on the seed")
        return {"seconds": reports[0].seconds, "gflops": reports[0].gflops}

    def warmup(self) -> Checks:
        """An untimed factorization with verification: ||A - LU||/||A||."""
        report = run_hpl(n=512, nb=64, num_images=16, images_per_node=8,
                         verify=True, seed=self.matrix_seed)
        return [("hpl_residual", report.residual is not None
                 and report.residual < 1e-12)]


# ----------------------------------------------------------------------
# tables_cold / tables_warm: the E1-E4 paper tables through repro.exec
# ----------------------------------------------------------------------
class Tables:
    """E1-E4 tables: every cell of the barrier, reduce and broadcast
    experiments over ``nodes``, through ``run_tasks`` and a
    ``ResultCache`` under ``workdir``.  Each sweep submits the cells in
    a fresh permutation drawn from the seed; with several workers the
    order changes how the cells pack onto them, so the repetitions of a
    run cover several packings.  A cold repetition starts from an empty
    cache; a warm one re-renders from the cache a cold sweep filled."""

    def __init__(self, seed: int, golden: Optional[dict], nodes, jobs: int,
                 warm: bool, workdir: Path):
        self.seed = seed
        self.golden = golden
        self.nodes = tuple(nodes)
        self.jobs = jobs
        self.warm = warm
        self.workdir = Path(workdir)
        self.plans = [plan for e in ("barrier", "reduce", "broadcast")
                      for plan in plan_experiment(e, self.nodes)]
        self.tasks = plan_tasks(self.plans)
        self.ops = len(self.tasks)
        self.rng = np.random.default_rng(seed)
        self.cache_root = self.workdir / "warm-cache"
        if warm:
            self.sweep(self.cache_root, jobs)

    def sweep(self, root: Optional[Path], jobs: int, order=None):
        """Run every cell, submitted in ``order`` (default: the next
        permutation); returns ``(text, outcomes, run_tasks stats)``."""
        if order is None:
            order = self.rng.permutation(self.ops)
        cache = ResultCache(root=root) if root is not None else None
        stats: dict = {}
        landed = run_tasks([self.tasks[i] for i in order], jobs=jobs,
                           cache=cache, stats_out=stats)
        outcomes = [None] * self.ops
        for slot, result in zip(order, landed):
            outcomes[slot] = result
        return render_results(self.plans, outcomes), outcomes, stats

    def setup(self) -> None:
        if self.warm:
            # time to the first result out of a reopened cache
            cache = ResultCache(root=self.cache_root)
            cache.get(cache.task_key(self.tasks[0]))
        else:
            # pool spawn + close around one trivial task
            run_tasks([TaskSpec(abs, (0,))], jobs=self.jobs)

    def warmup(self) -> Checks:
        small = Tables(self.seed, None, self.nodes[:1], 1, False, self.workdir)
        _text, outcomes, _ = small.sweep(None, 1)
        return [("cells_ok", all(o.ok for o in outcomes))]

    def run(self, jobs: Optional[int] = None):
        jobs = self.jobs if jobs is None else jobs
        if self.warm:
            return self.sweep(self.cache_root, jobs)
        root = Path(tempfile.mkdtemp(prefix="cold-cache-", dir=self.workdir))
        try:
            return self.sweep(root, jobs)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def inspect(self, swept) -> Rep:
        text, outcomes, stats = swept
        checks = [("cells_ok", all(o.ok for o in outcomes)),
                  ("tables", text == self.golden["text"])]
        cache = stats.get("cache", {})
        if self.warm:
            checks.append(("warm_hits", cache.get("hits") == self.ops))
        busy = stats.get("per_worker_busy_s", [])
        wall = stats.get("wall_s", 0.0)
        counts = {
            "exec.tasks": stats.get("tasks", 0),
            "exec.executed": stats.get("executed", 0),
            "exec.hit_rate": cache.get("hit_rate", 0.0),
            "exec.utilization": (sum(busy) / (len(busy) * wall)
                                 if busy and wall > 0 else 0.0),
            "exec.worker_busy_s": sum(busy),
            "exec.encode_s": stats.get("encode_s", 0.0),
            "exec.respawns": stats.get("respawns", 0),
        }
        return Rep(ops=self.ops, signature=(text,), checks=checks,
                   counts=counts)

    def reference(self) -> dict:
        """The rendered tables, checked equal for every golden seed's
        submission order."""
        texts = {self.sweep(None, 1, np.random.default_rng(seed).permutation(self.ops))[0]
                 for seed in GOLDEN_SEEDS}
        if len(texts) != 1:
            raise AssertionError("tables depend on cell submission order")
        return {"text": texts.pop()}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _fine352(seed, golden, jobs, workdir, images=352, ipn=8, kinds="srb" * 10):
    return Collectives(seed, golden, images, ipn, kinds)


def _xscale3k(seed, golden, jobs, workdir, images=3000, ipn=1, kinds="bssrsr"):
    return Collectives(seed, golden, images, ipn, kinds)


def _cg128(seed, golden, jobs, workdir, images=128, ipn=8, unknowns=8192,
           iters=20):
    return ConjugateGradient(seed, golden, images, ipn, unknowns, iters)


def _hpl64(seed, golden, jobs, workdir, images=64, ipn=8, n=2048, nb=128):
    return Hpl(seed, golden, images, ipn, n, nb)


def _tables_cold(seed, golden, jobs, workdir, nodes=(2, 8)):
    return Tables(seed, golden, nodes, jobs, False, workdir)


def _tables_warm(seed, golden, jobs, workdir, nodes=(2, 8)):
    return Tables(seed, golden, nodes, jobs, True, workdir)


#: workload name -> (factory, golden key); factories take
#: ``(seed, golden, jobs, workdir, **shape)``
WORKLOADS = {
    "fine352": (_fine352, "fine352"),
    "xscale3k": (_xscale3k, "xscale3k"),
    "cg128": (_cg128, "cg128"),
    "hpl64": (_hpl64, "hpl64"),
    "tables_cold": (_tables_cold, "tables"),
    "tables_warm": (_tables_warm, "tables"),
}
