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

These programs use the initial team only, and on machines with several
images per node that team never opens a window (no replay, no fine
pin), so the mixed blocks bound nothing but exactness; a flat-only block
of the same generator checks that most programs really replay.  A
sub-team block with its own generator forms row and column teams on
machines with 1, 2, 4 and 8 images per node, runs HPL-shaped pivot
searches on one column team while the other columns wait, and checks
that most of its programs replay sub-team windows and that a planted
divergence in one fails the macro-on leg.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_spmd
from repro.collectives.macro import MacroCollectives
from repro.exec import ResultCache, TaskSpec, run_tasks
from repro.machine import build_machine, paper_cluster
from repro.runtime.config import UHCAF_2LEVEL
from repro.sim.engine import Engine
from repro.verify import HBMonitor, fingerprint, leftovers

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
    if leg == "macro-on" and ipn > 1:
        assert world.macro.replays == 0, where
        assert world.macro.fine_pins == 0, where
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


# ----------------------------------------------------------------------
# Sub-team block: row and column teams, HPL-shaped phases
# ----------------------------------------------------------------------
#: the sub-team generator's seeds, drawn from a stream of its own so the
#: programs above keep theirs
SUBTEAM_SEEDS = range(40)

#: the sub-team generator's stream
SUBTEAM_STREAM = 5


def _subteam_program(ctx, q, phases):
    """Form the row and column teams of a ``num_images / q`` by ``q``
    grid, then run ``phases``; returns every result and the time after
    every phase."""
    me = ctx.this_image()
    grid_row, grid_col = divmod(me - 1, q)
    row = yield from ctx.form_team(grid_row + 1)
    col = yield from ctx.form_team(grid_col + 1)
    out = []
    for phase in phases:
        op, args = phase[0], phase[1:]
        if op == "compute":
            yield ctx.compute_cost(args[0][me - 1])
        elif op == "pivot":
            # one column searches pivots while the other columns wait in
            # the row broadcast, as in HPL's panel factorization
            column, diag, flops, candidates, swap, sync, payloads = args
            if grid_col == column:
                for work, cand in zip(flops, candidates):
                    yield ctx.compute_cost(work[me - 1])
                    out.append((yield from ctx.co_reduce(
                        cand[me - 1], op="maxloc", team=col)))
                    out.append(ctx.now)
                    if col.index == diag:
                        partner = col.index % col.size + 1
                        yield from ctx.conduit.transfer(
                            col.proc, col.shared.proc_of(partner), swap)
                if sync:
                    yield from ctx.sync_team(col)
            out.append((yield from ctx.co_broadcast(
                payloads[me - 1], source_image=column + 1, team=row)))
        elif op == "col_sum":
            out.append((yield from ctx.co_sum(args[0][me - 1], team=col)))
        elif op == "col_maxloc":
            out.append((yield from ctx.co_reduce(
                args[0][me - 1], op="maxloc", team=col)))
        elif op == "col_sync":
            yield from ctx.sync_team(col)
        elif op == "row_sum":
            out.append((yield from ctx.co_sum(args[0][me - 1], team=row)))
        elif op == "change":
            yield from ctx.change_team(col)
            out.append((yield from ctx.co_sum(args[0][me - 1])))
            yield from ctx.sync_all()
            yield from ctx.end_team()
        else:  # "sync_all"
            yield from ctx.sync_all()
        out.append(ctx.now)
    return out


def _candidates(rng, images):
    """``maxloc`` pairs with ties in value and in location."""
    return [(float(v), int(loc)) for v, loc in
            zip(rng.integers(0, 4, size=images),
                rng.integers(1, 2 * images, size=images))]


def _subteam_case(seed):
    """One random grid program: ``(images, ipn, config, q, phases)``.
    Column teams are flat within themselves when ``q`` is a multiple of
    the images per node, which most shapes draw."""
    rng = np.random.default_rng([SUBTEAM_STREAM, seed])
    ipn = int(rng.choice([1, 2, 4, 8]))
    if ipn > 1 and rng.random() < 0.2:
        q = ipn // 2  # two grid rows share a node: hierarchical columns
    else:
        q = ipn * int(rng.integers(1, 3)) if ipn > 1 else int(rng.integers(2, 6))
    p = int(rng.integers(2, 5)) if q <= 8 else 2
    images = p * q
    config = RD_CONFIG if rng.random() < 0.5 else UHCAF_2LEVEL
    phases = []
    for _ in range(int(rng.integers(3, 7))):
        if rng.random() < 0.5:
            flops = (np.full(images, float(rng.integers(1, 4) * 5e4))
                     if rng.random() < 0.5
                     else 5e4 + rng.integers(0, 4, size=images) * 1e4)
            phases.append(("compute", [float(f) for f in flops]))
        op = str(rng.choice(["pivot", "col_sum", "col_maxloc", "col_sync",
                             "row_sum", "change", "sync_all"],
                            p=[0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]))
        if op == "pivot":
            steps = int(rng.integers(2, 5))
            flops = [[float(f) for f in 2e4 + rng.integers(0, 3, size=images) * 5e3]
                     for _ in range(steps)]
            phases.append((op, int(rng.integers(0, q)),
                           int(rng.integers(1, p + 1)), flops,
                           [_candidates(rng, images) for _ in range(steps)],
                           int(rng.choice([8, 512, 4096])),
                           bool(rng.random() < 0.5), _payloads(rng, images)))
        elif op == "col_maxloc":
            phases.append((op, _candidates(rng, images)))
        elif op in ("col_sum", "row_sum", "change"):
            phases.append((op, _payloads(rng, images)))
        else:
            phases.append((op,))
    return images, ipn, config, q, phases


def _run_subteam_leg(seed, leg):
    images, ipn, config, q, phases = _subteam_case(seed)
    engine = Engine(trace=_ignore if leg == "traced" else None)
    machine = build_machine(engine, paper_cluster(-(-images // ipn)),
                            images, images_per_node=ipn)
    res = run_spmd(_subteam_program, machine=machine, config=config,
                   args=(q, phases),
                   macro_events=False if leg == "macro-off" else None)
    where = f"seed {seed}, {leg}: {images} images, {ipn}/node, {config.name}"
    world = res.world
    assert world.engine.grants == sum(
        r.total_grants for r in world.resources()), where
    assert leftovers(world) == [], where
    return res


SUBTEAM_LEGS = ("macro-off", "macro-on", "traced")


def _check_subteams(seed):
    """Run one grid program through the sub-team block's legs; returns
    the macro-on run's coordinator."""
    runs = {leg: _run_subteam_leg(seed, leg) for leg in SUBTEAM_LEGS}
    off = fingerprint(runs["macro-off"])
    for leg, res in runs.items():
        want, got = off, fingerprint(res)
        if leg == "macro-on":
            want, got = want.without_events(), got.without_events()
        _assert_same(want, got, leg, f"sub-team seed {seed}")
    return runs["macro-on"].world.macro


@pytest.fixture
def subteam_commits(monkeypatch):
    """The kinds of the sub-team windows committed while a test runs."""
    kinds = []
    commit = MacroCollectives._commit

    def counting(self, view, kind, g):
        if view.size < self.world.num_images:
            kinds.append(kind)
        return commit(self, view, kind, g)

    monkeypatch.setattr(MacroCollectives, "_commit", counting)
    return kinds


def test_subteam_programs_replay(subteam_commits):
    """Macro on and off, and traced, give one fingerprint; and the block
    is not vacuous: most programs replay sub-team windows, exactly."""
    replayed = 0
    for seed in SUBTEAM_SEEDS:
        before = len(subteam_commits)
        macro = _check_subteams(seed)
        if len(subteam_commits) > before and not macro.inexact:
            replayed += 1
    assert replayed >= len(SUBTEAM_SEEDS) // 2, replayed
    assert {"reduce-2l", "reduce-rd", "tdlb"} <= set(subteam_commits)


@pytest.mark.parametrize("replay", ["_replay_rd", "_replay_rd_slots"])
def test_planted_subteam_divergence_fails(monkeypatch, replay):
    """One ulp on a member's exit from every sub-team reduction window
    (on either ledger) fails the macro-on leg."""
    real = getattr(MacroCollectives, replay)

    def late(self, rounds, g):
        exit_at, results = real(self, rounds, g)
        if g.ring is not None:
            exit_at[0] = float(np.nextafter(exit_at[0], np.inf))
        return exit_at, results

    monkeypatch.setattr(MacroCollectives, replay, late)
    if replay == "_replay_rd":  # every team replays as NumPy sweeps
        monkeypatch.setattr("repro.collectives.macro.SLOT_REPLAY_MAX", 0)
    with pytest.raises(AssertionError, match="macro-on leg differs"):
        for seed in SUBTEAM_SEEDS:
            _check_subteams(seed)
