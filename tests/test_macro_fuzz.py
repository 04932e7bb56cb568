"""Differential fuzzer: every execution path on generated programs.

Seeded random SPMD programs — chains of ``sync_all``/``co_sum``/
``co_max``/``co_min``/``co_broadcast`` with random payloads, random
broadcast sources and random compute between operations — run on random
machine shapes (hierarchical, flat, non-power-of-two).  Some programs
post a ``put_nb`` mid-chain, which disables macro-events for the rest of
the run, so the macro→fine hand-over is exercised too.

Each program runs through every execution path (a *leg*): macro-events
on and off, a traced engine (``Engine(trace=...)``) and an
:class:`~repro.verify.HBMonitor` riding along; a subset also runs
pooled through :func:`repro.exec.run_tasks` with two workers, then cold
and warm through a :class:`~repro.exec.ResultCache`.  Every leg must
give the macro-off run's :func:`~repro.verify.fingerprint` — the
macro-on leg apart from its engine event count, the pooled and cached
legs the inline macro-on run's in full — whether or not the
coordinator's audit flagged the run ``inexact``.  Every run must leave
nothing behind (:func:`~repro.verify.leftovers`), and its engine's
lifetime grant counter must equal the sum over the fabric resources.
Each leg is mutation-checked: a one-grant or one-ulp divergence planted
into that leg alone must fail the comparison.

Programs on machines with several images per node never replay a window
(``disabled_reason == "hierarchical"``), so the mixed blocks bound
nothing but exactness; a flat-only block of the same generator checks
that most programs really replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_spmd
from repro.exec import ResultCache, TaskSpec, run_tasks
from repro.machine import build_machine, paper_cluster
from repro.runtime.config import UHCAF_2LEVEL
from repro.sim.engine import Engine
from repro.verify import HBMonitor, fingerprint, leftovers
from tests.conftest import assert_counts_agree

#: the generator's seeds, run through every in-process leg in blocks
SEEDS = range(200)
BLOCK = 20

#: the flat-only block forces seeds 64-79 onto one image per node
FLAT_SEEDS = range(64, 80)

#: the programs that also run pooled, cold-cached and warm-cached
POOLED_SEEDS = range(16)

#: a small flat program for the mutation checks: 6 images, two windows
#: replayed before a ``put_nb`` hands over to the fine-grained path
MUTATION_SEED = 113

LEGS = ("macro-off", "macro-on", "traced", "monitored")

RD_CONFIG = UHCAF_2LEVEL.with_(name="rd", reduce="recursive-doubling")


def _program(ctx, plan):
    me = ctx.this_image()
    n = ctx.num_images()
    out = []
    co = None
    for step in plan:
        op = step[0]
        if op == "compute":
            yield ctx.compute_cost(step[1][me - 1])
        elif op == "sync_all":
            yield from ctx.sync_all()
        elif op == "put_nb":
            co = yield from ctx.allocate("fuzz", (1,))
            handle = yield from ctx.put_nb(co, me % n + 1, float(me))
            yield from ctx.wait_rma(handle)
        elif op == "co_broadcast":
            out.append((yield from ctx.co_broadcast(
                step[1][me - 1], source_image=step[2])))
        else:
            out.append((yield from getattr(ctx, op)(step[1][me - 1])))
    if co is not None:
        yield from ctx.sync_all()
        out.append(ctx.local(co).tolist())
    return out


def _payloads(rng, images):
    """One contribution per image: int64 or float64 arrays of one length
    (1-8), or Python floats (the per-pair combine path)."""
    kind = rng.choice(["int64", "float64", "scalar"], p=[0.4, 0.4, 0.2])
    length = int(rng.integers(1, 9))
    if kind == "int64":
        return list(rng.integers(-2**20, 2**20, size=(images, length)))
    if kind == "float64":
        return list(rng.standard_normal((images, length)))
    return [float(x) for x in rng.standard_normal(images)]


def _random_case(seed, flat=False):
    """One random program; ``flat`` forces one image per node (the
    images-per-node draw still happens, so the rest of the draws keep
    their order)."""
    rng = np.random.default_rng(seed)
    ipn = int(rng.choice([1, 1, 2, 3, 4, 8]))
    if flat:
        ipn = 1
    images = int(rng.integers(2, 41 if ipn > 1 else 70))
    config = RD_CONFIG if ipn == 1 and rng.random() < 0.3 else UHCAF_2LEVEL
    plan = []
    put_at = int(rng.integers(1, 6)) if rng.random() < 0.25 else -1
    for pos in range(int(rng.integers(3, 9))):
        if pos == put_at:
            plan.append(("put_nb",))
        if rng.random() < (0.4 if ipn == 1 else 0.7):
            # Enough work to outlast the previous window's deliveries
            # (the exactness envelope on hierarchical teams).  Uniform
            # work keeps arrivals aligned; per-image work leaves other
            # images' compute pending at the first arrival, which pins
            # the window fine.  Back-to-back operations (more common on
            # flat teams) exercise chained windows there and the overlap
            # audit on hierarchical teams.
            flops = (np.full(images, float(rng.integers(1, 4) * 5e5))
                     if rng.random() < 0.8
                     else 5e5 + rng.integers(0, 4, size=images) * 1e5)
            plan.append(("compute", [float(f) for f in flops]))
        op = str(rng.choice(["sync_all", "co_sum", "co_max", "co_min",
                             "co_broadcast"]))
        if op == "sync_all":
            plan.append((op,))
        elif op == "co_broadcast":
            plan.append((op, _payloads(rng, images),
                         int(rng.integers(1, images + 1))))
        else:
            plan.append((op, _payloads(rng, images)))
    return images, ipn, config, plan


def _ignore(_time, _label):
    pass


def _run_leg(seed, flat, leg):
    """Run program ``seed`` through ``leg`` and check what every run
    must hold; returns the :class:`~repro.runtime.program.SpmdResult`."""
    images, ipn, config, plan = _random_case(seed, flat)
    engine = Engine(trace=_ignore if leg == "traced" else None)
    machine = build_machine(engine, paper_cluster(-(-images // ipn)),
                            images, images_per_node=ipn)
    res = run_spmd(_program, machine=machine, config=config, args=(plan,),
                   macro_events=False if leg == "macro-off" else None,
                   monitor=HBMonitor() if leg == "monitored" else None)
    where = f"seed {seed}, {leg}: {images} images, {ipn}/node, {config.name}"
    world = res.world
    assert world.engine.grants == sum(
        r.total_grants for r in world.resources()), where
    assert leftovers(world) == [], where
    assert_counts_agree(world.conduit.counts, res.traffic)
    if leg == "macro-on" and ipn > 1:
        assert world.macro.replays == 0, where
        assert world.macro.disabled_reason == "hierarchical", where
    return res


def _plant(res, divergence):
    """A one-grant or a one-ulp divergence in one run."""
    if divergence == "grant":
        res.world.engine.grants += 1
    else:
        res.time = float(np.nextafter(res.time, np.inf))


def _leg_fingerprint(seed, flat, leg, divergence=None):
    """The fingerprint of one leg's run (a pool task)."""
    res = _run_leg(seed, flat, leg)
    if divergence is not None:
        _plant(res, divergence)
    return fingerprint(res)


def _assert_same(want, got, leg, where):
    differ = want.diff(got)
    assert not differ, f"{where}: the {leg} leg differs in {differ}"


def _check(seed, flat=False, planted=None):
    """Run one program through every in-process leg; ``planted`` is a
    ``(leg, divergence)`` to inject.  Returns the macro-on run's
    ``(replays, exact)``."""
    runs = {leg: _run_leg(seed, flat, leg) for leg in LEGS}
    if planted is not None:
        leg, divergence = planted
        _plant(runs[leg], divergence)
    off = fingerprint(runs["macro-off"])
    for leg, res in runs.items():
        want, got = off, fingerprint(res)
        if leg == "macro-on":
            want, got = want.without_events(), got.without_events()
        _assert_same(want, got, leg, f"seed {seed}")
    macro = runs["macro-on"].world.macro
    return macro.replays, not macro.inexact


def _pooled(seeds, cache=None, planted=None):
    """Macro-on fingerprints of ``seeds`` through a two-worker pool;
    ``planted`` injects a divergence into the first program's task."""
    tasks = [TaskSpec(_leg_fingerprint,
                      (seed, False, "macro-on",
                       planted if i == 0 else None))
             for i, seed in enumerate(seeds)]
    results = run_tasks(tasks, jobs=2, cache=cache)
    assert all(r.ok for r in results), [r.error for r in results]
    return [r.value for r in results]


def _assert_legs(seeds, want, got, leg):
    assert len(got) == len(want)
    for seed, w, g in zip(seeds, want, got):
        _assert_same(w, g, leg, f"seed {seed}")


def _inline(seeds):
    return [_leg_fingerprint(seed, False, "macro-on") for seed in seeds]


@pytest.mark.parametrize("block", range(len(SEEDS) // BLOCK))
def test_macro_matches_fine_grained(block):
    """Macro on and off, traced and monitored: one fingerprint."""
    for seed in SEEDS[block * BLOCK:(block + 1) * BLOCK]:
        _check(seed)


def test_flat_programs_replay():
    outcomes = [_check(seed, flat=True) for seed in FLAT_SEEDS]
    # not vacuous: most programs must replay windows, and exactly
    replayed = sum(1 for replays, exact in outcomes if replays and exact)
    assert replayed >= len(FLAT_SEEDS) // 2, outcomes
    assert sum(replays for replays, _ in outcomes) >= len(FLAT_SEEDS) * 3 // 4


def test_pooled_and_cached_legs(tmp_path):
    seeds = POOLED_SEEDS
    want = _inline(seeds)
    _assert_legs(seeds, want, _pooled(seeds), "pooled")
    cold = ResultCache(root=tmp_path, namespace="fuzz")
    _assert_legs(seeds, want, _pooled(seeds, cold), "cold")
    assert cold.hits == 0 and cold.puts == len(seeds)
    warm = ResultCache(root=tmp_path, namespace="fuzz")
    _assert_legs(seeds, want, _pooled(seeds, warm), "warm")
    assert warm.hits == len(seeds)


def test_disable_forgets_open_fine_gathers():
    # 58 flat images: the audit switches macro-events off ("overlap")
    # while a broadcast's fine gather is open; the disable must forget
    # it rather than leave it open for the rest of the run
    res = _run_leg(14, False, "macro-on")
    assert res.world.macro.disabled_reason == "overlap"
    assert res.world.macro._gathers == {}


@pytest.mark.parametrize("divergence", ["grant", "ulp"])
class TestPlantedDivergence:
    """Each leg's comparison fails when that leg alone diverges."""

    @pytest.mark.parametrize("leg", LEGS)
    def test_in_process_leg(self, leg, divergence):
        with pytest.raises(AssertionError, match="leg differs"):
            _check(MUTATION_SEED, planted=(leg, divergence))

    @pytest.mark.parametrize("leg", ["pooled", "cold"])
    def test_pooled_leg(self, leg, divergence, tmp_path):
        seeds = [MUTATION_SEED]
        cache = (ResultCache(root=tmp_path, namespace="fuzz")
                 if leg == "cold" else None)
        got = _pooled(seeds, cache, planted=divergence)
        with pytest.raises(AssertionError, match="leg differs"):
            _assert_legs(seeds, _inline(seeds), got, leg)

    def test_warm_leg(self, divergence, tmp_path):
        seeds = [MUTATION_SEED]
        _pooled(seeds, ResultCache(root=tmp_path, namespace="fuzz"))
        # the planted run's fingerprint replaces the cached entry
        warm = ResultCache(root=tmp_path, namespace="fuzz")
        task = TaskSpec(_leg_fingerprint, (MUTATION_SEED, False, "macro-on",
                                           None))
        warm.put(warm.task_key(task),
                 _leg_fingerprint(MUTATION_SEED, False, "macro-on",
                                  divergence))
        got = _pooled(seeds, warm)
        assert warm.hits == 1
        with pytest.raises(AssertionError, match="leg differs"):
            _assert_legs(seeds, _inline(seeds), got, "warm")
