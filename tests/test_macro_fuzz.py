"""Differential fuzzer for macro-events (:mod:`repro.collectives.macro`).

Seeded random SPMD programs — chains of ``sync_all``/``co_sum``/
``co_max``/``co_min``/``co_broadcast`` with random payloads, random
broadcast sources and random compute between operations — run on random
machine shapes (hierarchical, flat, non-power-of-two) with macro-events
on and off.  Some programs post a ``put_nb`` mid-chain, which disables
macro-events for the rest of the run, so the macro→fine hand-over is
exercised too.

Traffic and the conduit's per-path message counts must always match the
fine-grained run.  When the coordinator reports the run exact
(``inexact`` False), the end time, every image's result (pickled digest)
and every fabric resource's grant count must match bit for bit.  On both
runs the engine's lifetime grant counter must equal the sum over the
fabric resources, walked here independently of the coordinator.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro import run_spmd
from repro.runtime.config import UHCAF_2LEVEL

#: seeds per test block; four blocks cover 64 programs
SEEDS_PER_BLOCK = 16

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


def _random_case(seed):
    rng = np.random.default_rng(seed)
    ipn = int(rng.choice([1, 1, 2, 3, 4, 8]))
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


def _grants(world):
    machine = world.machine
    spec = machine.spec
    out = []
    for node in range(spec.num_nodes):
        out.append(world.conduit.progress_engine(node).total_grants)
        out.append(machine.interconnect.nic(node).total_grants)
        out.extend(machine.shared_memory.bus(node, s).total_grants
                   for s in range(spec.node.sockets))
    return out


def _digest(results):
    return hashlib.sha256(pickle.dumps(results, protocol=4)).hexdigest()


def _check(seed):
    """Run one random program both ways; return (replays, exact)."""
    images, ipn, config, plan = _random_case(seed)
    runs = {
        macro: run_spmd(_program, num_images=images, images_per_node=ipn,
                        config=config, macro_events=macro, args=(plan,))
        for macro in (True, False)
    }
    on, off = runs[True], runs[False]
    where = f"seed {seed}: {images} images, {ipn}/node, {config.name}"
    for run in (on, off):
        assert run.world.engine.grants == sum(_grants(run.world)), where
    assert on.traffic == off.traffic, where
    assert on.world.conduit.counts == off.world.conduit.counts, where
    macro = on.world.macro
    if not macro.inexact:
        assert on.time == off.time, where
        assert _digest(on.results) == _digest(off.results), where
        assert _grants(on.world) == _grants(off.world), where
    return macro.replays, not macro.inexact


@pytest.mark.parametrize("block", range(4))
def test_macro_matches_fine_grained(block):
    seeds = range(block * SEEDS_PER_BLOCK, (block + 1) * SEEDS_PER_BLOCK)
    outcomes = [_check(seed) for seed in seeds]
    # not vacuous: most programs must replay windows, and exactly
    replayed = sum(1 for replays, exact in outcomes if replays and exact)
    assert replayed >= SEEDS_PER_BLOCK // 2, outcomes
    assert sum(replays for replays, _ in outcomes) >= SEEDS_PER_BLOCK * 3 // 4
