"""Simulation-kernel microbenchmarks.

Workloads
---------
``trampoline``
    Self-rescheduling callbacks, no processes: isolates
    ``Engine.schedule`` + the run-loop dispatch.
``engine_dispatch``
    N generator processes each yielding a chain of ``Timeout``\\ s: the
    per-event process-driver path (generator resume, command dispatch,
    timeout scheduling).  This is *the* engine microbenchmark — it is the
    shape of every charged cost in the runtime.
``burst``
    Timeout chains with *identical* delays so every dispatch instant
    carries one event per process: the best case for the batched heap
    drain (pop a whole same-time cohort per heap discipline) and the
    worst case for a strictly per-event loop.
``sync_kernel``
    Producer/consumer pairs spinning on ``Cell``\\ s via ``WaitFor``:
    watcher checks, blocked-bookkeeping, wake-on-write — the shape of
    barrier ``sync_flags`` traffic.
``tdlb_barrier``
    End-to-end: a real :func:`~repro.runtime.program.run_spmd` TDLB
    barrier sweep through the full runtime stack.
``macro_barrier``
    The macro-event A/B: the hierarchical TDLB barrier on a flat
    ≥ 1k-image team, macro-events on vs off.
    Reports the engine-event ratio and checks the final simulated times
    agree — the exactness contract, measured rather than assumed.
``macro_reduce`` / ``macro_bcast``
    The same A/B for the reduction and broadcast macro-windows: a tight
    ``co_sum`` loop on a flat team (sustained chained collapse — every
    window replayed from the first analysis) and a single isolated
    ``co_broadcast`` window.  Both check final time *and* per-image
    results bit-identical, and surface the macro coordinator's own
    counters (replays, inexact flag, disable reason) so the gate can
    fail loudly instead of silently pinning fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Tuple

from ..machine import build_machine, paper_cluster
from ..runtime.program import run_spmd
from ..sim import Cell, Engine, Process, Timeout, WaitFor

__all__ = [
    "BenchResult",
    "bench_trampoline", "bench_engine_dispatch", "bench_burst",
    "bench_sync_kernel", "bench_tdlb_barrier", "bench_macro_barrier",
    "bench_macro_reduce", "bench_macro_bcast",
]


@dataclass
class BenchResult:
    """One measured workload run (best of ``repeats``)."""

    name: str
    events: int
    wall_s: float
    sim_time: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "sim_time_s": self.sim_time,
        }


def _best_of(
    name: str, once: Callable[[], Tuple[int, float, float]], repeats: int,
) -> BenchResult:
    """Run ``once`` ``repeats`` times, keep the fastest (least-noisy) run."""
    best: BenchResult = None  # type: ignore[assignment]
    for _ in range(max(1, repeats)):
        events, wall, sim_time = once()
        result = BenchResult(name, events, wall, sim_time)
        if best is None or result.events_per_sec > best.events_per_sec:
            best = result
    return best


def _timed_run(engine: Engine) -> Tuple[int, float, float]:
    t0 = perf_counter()
    engine.run()
    wall = perf_counter() - t0
    return engine.events_processed, wall, engine.now


# ----------------------------------------------------------------------
def bench_trampoline(
    events: int = 200_000, chains: int = 8, repeats: int = 3,
) -> BenchResult:
    """Pure engine loop: ``chains`` callbacks re-scheduling themselves."""
    per_chain = events // chains

    def once() -> Tuple[int, float, float]:
        engine = Engine()

        def make_chain(idx: int) -> Callable[[], None]:
            remaining = per_chain
            delay = (idx % 7 + 1) * 1e-9  # distinct delays keep the heap honest

            def tick() -> None:
                nonlocal remaining
                remaining -= 1
                if remaining > 0:
                    engine.schedule(delay, tick)

            return tick

        for idx in range(chains):
            engine.schedule(0.0, make_chain(idx))
        return _timed_run(engine)

    return _best_of("trampoline", once, repeats)


def bench_engine_dispatch(
    procs: int = 32, events_per_proc: int = 4_000, repeats: int = 3,
) -> BenchResult:
    """The engine microbenchmark: Timeout chains through the process driver."""

    def image(idx: int) -> Any:
        delay = (idx % 7 + 1) * 1e-9
        timeout = Timeout(delay)
        for _ in range(events_per_proc):
            yield timeout

    def once() -> Tuple[int, float, float]:
        engine = Engine()
        for idx in range(procs):
            Process(engine, image(idx), name=f"bench{idx}")
        return _timed_run(engine)

    return _best_of("engine_dispatch", once, repeats)


def bench_burst(
    procs: int = 128, events_per_proc: int = 2_000, repeats: int = 3,
) -> BenchResult:
    """Batched-heap stress: every process ticks with the *same* delay.

    All ``procs`` events land on identical timestamps, so each dispatch
    instant is a full same-time cohort — the shape the batched drain
    amortizes and a per-event loop pays for one heap round-trip at a
    time.
    """

    def image() -> Any:
        timeout = Timeout(1e-9)
        for _ in range(events_per_proc):
            yield timeout

    def once() -> Tuple[int, float, float]:
        engine = Engine()
        for idx in range(procs):
            Process(engine, image(), name=f"burst{idx}")
        return _timed_run(engine)

    return _best_of("burst", once, repeats)


def bench_sync_kernel(
    pairs: int = 8, rounds: int = 2_000, repeats: int = 3,
) -> BenchResult:
    """Cell spin-wait ping-pong: watcher checks + blocked bookkeeping.

    Each round hops through a zero-ish Timeout so wakes trampoline through
    the engine instead of recursing through synchronous callbacks.
    """

    def left(ping: Any, pong: Any) -> Any:
        for r in range(1, rounds + 1):
            ping.add(1)
            yield WaitFor(pong, lambda v, r=r: v >= r)
            yield Timeout(1e-9)

    def right(ping: Any, pong: Any) -> Any:
        for r in range(1, rounds + 1):
            yield WaitFor(ping, lambda v, r=r: v >= r)
            yield Timeout(1e-9)
            pong.add(1)

    def once() -> Tuple[int, float, float]:
        engine = Engine()
        for p in range(pairs):
            ping = Cell(engine, name=f"ping{p}")
            pong = Cell(engine, name=f"pong{p}")
            Process(engine, left(ping, pong), name=f"left{p}")
            Process(engine, right(ping, pong), name=f"right{p}")
        return _timed_run(engine)

    return _best_of("sync_kernel", once, repeats)


# ----------------------------------------------------------------------
def _barrier_main(ctx: Any, iters: int) -> Any:
    for _ in range(iters):
        yield from ctx.sync_all()


def bench_tdlb_barrier(
    iters: int = 200, num_images: int = 16, images_per_node: int = 8,
    repeats: int = 2,
) -> BenchResult:
    """End-to-end TDLB barrier sweep through the full runtime stack."""

    def once() -> Tuple[int, float, float]:
        engine = Engine()
        nodes = -(-num_images // images_per_node)
        machine = build_machine(
            engine, paper_cluster(max(nodes, 1)), num_images,
            images_per_node=images_per_node,
        )
        t0 = perf_counter()
        result = run_spmd(_barrier_main, machine=machine, args=(iters,))
        wall = perf_counter() - t0
        return engine.events_processed, wall, result.time

    return _best_of("tdlb_barrier", once, repeats)


def bench_macro_barrier(
    iters: int = 10, num_images: int = 1024, repeats: int = 1,
) -> dict:
    """Macro-event A/B: flat TDLB barrier sweep, macro on vs off.

    A flat (block placement, one image per node) team keeps every
    barrier window single-instant, so the macro coordinator sustains
    collapse across the whole sweep; fine-grained mode executes the
    full dissemination event by event.  Returns one composite entry:
    engine-event counts for both modes, the ratio, both final simulated
    times, and whether they agree exactly — the acceptance contract of
    the macro-event subsystem (≥ 10x fewer events, identical time).
    """

    def once(macro: bool) -> Tuple[int, float, float]:
        engine = Engine()
        machine = build_machine(
            engine, paper_cluster(num_images), num_images, images_per_node=1,
        )
        t0 = perf_counter()
        result = run_spmd(_barrier_main, machine=machine, args=(iters,),
                          macro_events=macro)
        wall = perf_counter() - t0
        return engine.events_processed, wall, result.time

    best: dict = {}
    for _ in range(max(1, repeats)):
        ev_fine, wall_fine, t_fine = once(macro=False)
        ev_macro, wall_macro, t_macro = once(macro=True)
        entry = {
            "num_images": num_images,
            "iters": iters,
            "events_fine": ev_fine,
            "events_macro": ev_macro,
            "event_ratio": round(ev_fine / ev_macro, 1) if ev_macro else 0.0,
            "wall_fine_s": round(wall_fine, 6),
            "wall_macro_s": round(wall_macro, 6),
            "sim_time_fine_s": t_fine,
            "sim_time_macro_s": t_macro,
            "identical_final_time": t_fine == t_macro,
        }
        if not best or entry["wall_macro_s"] < best["wall_macro_s"]:
            best = entry
    return best


# ----------------------------------------------------------------------
def _reduce_main(ctx: Any, iters: int) -> Any:
    acc = float(ctx.this_image())
    for _ in range(iters):
        acc = yield from ctx.co_sum(acc * 0.5)
    return acc


def _bcast_main(ctx: Any, iters: int) -> Any:
    # One broadcast window per run (iters defaults to 1): a broadcast
    # window only collapses when it opens on a fully quiet engine —
    # its staggered deliveries mean later members of a *chained* window
    # would be parked past their true exits, so the coordinator pins
    # follow-on windows fine by design.  The collapsible shape is the
    # isolated window, and that is what this bench measures.
    me = ctx.this_image()
    out = 0.0
    for _ in range(iters):
        out = yield from ctx.co_broadcast(out + me, source_image=1)
    return out


def _bench_macro_collective(
    main: Callable[..., Any], iters: int, num_images: int, repeats: int,
) -> dict:
    """Shared macro on/off A/B for a collective sweep on a flat team.

    Same shape as :func:`bench_macro_barrier`, with two additions the
    data-carrying collectives need: the per-image *results* must also be
    bit-identical (a barrier carries no data; a reduce or broadcast
    does), and the macro coordinator's own counters ride along so a run
    that silently pinned fine (ratio ≈ 1, replays = 0) is visible in the
    recorded entry rather than just as a slow wall time.
    """

    def once(macro: bool) -> Tuple[int, float, Any]:
        engine = Engine()
        machine = build_machine(
            engine, paper_cluster(num_images), num_images, images_per_node=1,
        )
        t0 = perf_counter()
        result = run_spmd(main, machine=machine, args=(iters,),
                          macro_events=macro)
        wall = perf_counter() - t0
        return engine.events_processed, wall, result

    best: dict = {}
    for _ in range(max(1, repeats)):
        ev_fine, wall_fine, r_fine = once(macro=False)
        ev_macro, wall_macro, r_macro = once(macro=True)
        macro_stats = r_macro.world.macro
        entry = {
            "num_images": num_images,
            "iters": iters,
            "events_fine": ev_fine,
            "events_macro": ev_macro,
            "event_ratio": round(ev_fine / ev_macro, 1) if ev_macro else 0.0,
            "wall_fine_s": round(wall_fine, 6),
            "wall_macro_s": round(wall_macro, 6),
            "sim_time_fine_s": r_fine.time,
            "sim_time_macro_s": r_macro.time,
            "identical_final_time": r_fine.time == r_macro.time,
            "identical_results": r_fine.results == r_macro.results,
            "replays": macro_stats.replays,
            "inexact": macro_stats.inexact,
            "disabled_reason": macro_stats.disabled_reason,
        }
        if not best or entry["wall_macro_s"] < best["wall_macro_s"]:
            best = entry
    return best


def bench_macro_reduce(
    iters: int = 5, num_images: int = 2048, repeats: int = 1,
) -> dict:
    """Macro-event A/B: tight ``co_sum`` sweep on a flat team.

    Back-to-back reductions with no separating compute are the chained-
    window case: each two-level fold/unfold window butts against the
    next, and the coordinator must collapse the whole chain from one
    analysis per window (``replays == iters``) while staying bit-exact
    on final time, per-image results, and traffic ledger.  This is the
    extreme-scale acceptance scenario scaled to a bench-friendly team.
    """
    return _bench_macro_collective(_reduce_main, iters, num_images, repeats)


def bench_macro_bcast(
    iters: int = 1, num_images: int = 4096, repeats: int = 1,
) -> dict:
    """Macro-event A/B: a single ``co_broadcast`` window on a flat team.

    The window is a two-level root→leaders→locals tree collapsed to one
    analytically-costed wake schedule.  The event ratio is bounded by
    the arrival floor — every member's registration is still one engine
    event — so expect ~4x here rather than the barrier/reduce orders of
    magnitude; the gate is about exactness, not the ratio.
    """
    return _bench_macro_collective(_bcast_main, iters, num_images, repeats)
