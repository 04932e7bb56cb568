"""Fan independent tasks across worker processes, results in order.

The simulation grids this repo runs (conformance matrix cells, fuzz
seeds, benchmark sweep cells, the paper's claims) are embarrassingly
parallel: every task is an independent, deterministic, CPU-bound
function call.  :func:`run_tasks` runs them through the content-keyed
:class:`~repro.exec.cache.ResultCache` and a stdlib
:class:`~concurrent.futures.ProcessPoolExecutor`, and guarantees:

* **Determinism** — results and ``progress`` callbacks come back in
  submission order, so a parallel run prints exactly what the
  sequential run prints.
* **Cache first** — hits are returned without executing anything, and
  a fully warm cache starts no process.
* **Inline fallback** — when ``jobs`` resolves to 1, for a task that
  does not pickle, and when no executor can be created (restricted
  sandboxes), tasks run in the parent with identical results.
* **Cold-path economics** — an *auto* request (``-j auto``,
  ``REPRO_JOBS=auto``, ``jobs<=0``) runs inline on one available core
  (workers would time-slice it: pooled runs of the quick conformance
  matrix measured slower than sequential on a 1-CPU runner) or with
  fewer than :data:`SPAWN_AMORTIZATION_MIN` cache
  misses.  An explicit ``-j N`` is honored as stated.  Either way the
  executor gets ``min(jobs, misses)`` workers: under ``fork`` it starts
  all of them at once.
* **Robustness** — a task that raises reports its error string and is
  not retried (tasks are deterministic).  A worker crash breaks the
  executor; the unfinished tasks re-run once on a fresh one, and if
  that breaks too each of them runs on an executor of its own, so only
  the task that kills its worker fails.  A task that runs past
  ``task_timeout`` gets its executor's workers terminated; its
  unfinished siblings move to a fresh executor, and the stuck task gets
  one untimed inline attempt after the pool drains.  A hang caused by
  the worker environment completes there, while a real hang stays
  visible instead of becoming a silently failed cell.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence

from .cache import ResultCache
from .task import PICKLE_PROTOCOL, TaskResult, TaskSpec

__all__ = ["run_tasks", "resolve_jobs", "auto_jobs", "effective_cpu_count",
           "SPAWN_AMORTIZATION_MIN"]

#: environment variable consulted when a harness passes ``jobs=None``
JOBS_ENV = "REPRO_JOBS"

#: upper bound on worker count (grids rarely have >10^2 cells in flight)
MAX_JOBS = 64

#: minimum cache misses for an auto request to start a pool at all:
#: starting a fork pool and shutting it down around one trivial task
#: takes about 10-15 ms on a 2-core Xeon VM (perfbench ``tables_cold``
#: ``setup_s``), which a couple of short cells never pay back
SPAWN_AMORTIZATION_MIN = 4

#: poll period (seconds) while a ``task_timeout`` is armed
_TICK = 0.05


def effective_cpu_count() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, not the allowance: under a
    CPU affinity mask or a container cgroup quota the process may own
    far fewer cores.  Prefer ``os.sched_getaffinity`` (Linux) and fall
    back to ``os.cpu_count()`` elsewhere.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def auto_jobs() -> int:
    """Worker count for ``-j auto``: one per *available* core, at least 1.

    On a single-CPU host this returns 1, which makes ``-j auto`` run
    inline: there the pool only adds worker start-up and IPC overhead
    with no parallelism to pay for it (a pooled quick conformance matrix
    ran at 0.87x sequential on a 1-CPU CI runner), so the pool must only
    engage when a second core exists.
    """
    return max(1, min(effective_cpu_count(), MAX_JOBS))


def resolve_jobs(jobs) -> int:
    """Normalize a jobs request (int, numeric string, ``"auto"``, None).

    ``None`` defers to the ``REPRO_JOBS`` environment variable (so
    long-standing drivers opt into parallelism without an API change)
    and defaults to 1 — sequential — when that is unset.  ``"auto"``,
    0, and negative values mean one worker per core.
    """
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV, "").strip() or 1
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            return auto_jobs()
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(f"jobs must be an integer or 'auto', got {jobs!r}")
    if jobs <= 0:
        return auto_jobs()
    return min(int(jobs), MAX_JOBS)


def _is_auto_request(jobs) -> bool:
    """True when the jobs request delegates the worker count to us
    (``"auto"``, 0/negative, or unset with ``REPRO_JOBS=auto``) rather
    than naming an explicit count."""
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV, "").strip() or 1
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            return True
        try:
            jobs = int(jobs)
        except ValueError:
            return False
    return jobs <= 0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _init_worker() -> None:
    # Harnesses inside a worker (e.g. fuzz_schedules within run_case)
    # must not start nested pools off an inherited REPRO_JOBS.
    os.environ[JOBS_ENV] = "1"


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _call(fn, args, kwargs):
    """Run one task in a worker: ``(pickled (ok, value or error), wall
    seconds, pid)``.  Pickling here turns an unpicklable return value
    into an ordinary per-task error, and each result is pickled once."""
    t0 = time.perf_counter()
    try:
        blob = pickle.dumps((True, fn(*args, **kwargs)),
                            protocol=PICKLE_PROTOCOL)
    except BaseException as exc:  # noqa: BLE001 — reported, not hidden
        blob = pickle.dumps((False, _describe(exc)), protocol=PICKLE_PROTOCOL)
    return blob, time.perf_counter() - t0, os.getpid()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _run_inline(index: int, task: TaskSpec, attempts: int) -> TaskResult:
    start = time.perf_counter()
    value, error = None, None
    try:
        value = task.run_inline()
    except KeyboardInterrupt:  # stops the sweep, as it does a pooled one
        raise
    except BaseException as exc:  # noqa: BLE001 — reported, not hidden
        error = _describe(exc)
    return TaskResult(index=index, value=value, error=error, inline=True,
                      attempts=attempts, wall_s=time.perf_counter() - start)


def _processes(executor) -> list:
    """The executor's worker processes (its private table; empty once
    it is shut down)."""
    return list((getattr(executor, "_processes", None) or {}).values())


def _terminate(executor) -> None:
    """Kill the executor's workers now, running tasks included."""
    terminate = getattr(executor, "terminate_workers", None)  # Python 3.14+
    if terminate is not None:
        terminate()
        return
    for proc in _processes(executor):
        if proc.is_alive():
            proc.terminate()


class _Fanout:
    """The pooled part of one :func:`run_tasks` call."""

    def __init__(self, tasks: Sequence[TaskSpec], workers: int,
                 task_timeout: Optional[float],
                 land: Callable[[int, TaskResult], None]):
        self.tasks = tasks
        self.workers = workers
        self.task_timeout = task_timeout
        self.land = land
        #: pooled attempts per task (executors it was submitted to)
        self.attempts: Dict[int, int] = {}
        #: tasks that get one inline attempt once the pool has drained:
        #: they do not pickle, their attempt timed out, or no executor
        #: could be created
        self.inline: List[int] = []
        self.executors = 0
        #: per worker pid: busy seconds and finished tasks
        self.busy: Dict[int, float] = {}
        self.done: Dict[int, int] = {}

    def run(self, todo: List[int]) -> None:
        crashes = 0
        while todo and crashes < 2:
            todo, crash = self._round(todo)
            crashes += crash is not None
        # The pool broke twice: run each suspect on an executor of its
        # own, so only a task that kills its worker fails.
        for index in todo:
            left, crash = self._round([index])
            if left:
                self.land(index, TaskResult(index=index, error=crash,
                                            attempts=self.attempts[index]))

    def _round(self, batch: List[int]):
        """Run ``batch`` on a fresh executor.  Returns the tasks it left
        unfinished and, when a worker died on its own, why."""
        size = min(self.workers, len(batch))
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else None)
        try:
            executor = ProcessPoolExecutor(
                size, mp_context=multiprocessing.get_context(method),
                initializer=_init_worker)
        except Exception:  # no semaphores or processes in this sandbox
            self.inline.extend(batch)
            return [], None
        self.executors += 1
        todo = deque(batch)
        finished: queue.SimpleQueue = queue.SimpleQueue()
        outstanding: Dict[Future, int] = {}
        started: Dict[Future, float] = {}
        left: List[int] = []
        broken = killed = False

        def submit() -> None:
            # One task per worker in flight plus one queued, so a worker
            # that finishes finds its next task waiting, and an attempt
            # timed from submission waits behind one running task at most.
            nonlocal broken
            while todo and len(outstanding) <= size:
                task = self.tasks[todo[0]]
                try:
                    future = executor.submit(_call, task.fn, task.args,
                                             task.kwargs)
                except BrokenProcessPool:  # a worker died since the last one
                    broken = True
                    left.extend(todo)
                    todo.clear()
                    return
                index = todo.popleft()
                self.attempts[index] = self.attempts.get(index, 0) + 1
                outstanding[future] = index
                started[future] = time.monotonic()
                future.add_done_callback(finished.put)

        def settle(future: Future) -> None:
            nonlocal broken
            index = outstanding.pop(future)
            del started[future]
            if future.cancelled():  # dropped at shutdown, never started
                left.append(index)
                return
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                broken = True
                left.append(index)
            elif exc is not None:  # the call never reached a worker
                self.inline.append(index)
            else:
                blob, wall, pid = future.result()
                ok, value = pickle.loads(blob)
                self.busy[pid] = self.busy.get(pid, 0.0) + wall
                self.done[pid] = self.done.get(pid, 0) + 1
                self.land(index, TaskResult(
                    index=index, attempts=self.attempts[index], wall_s=wall,
                    worker=pid, **({"value": value} if ok else {"error": value})))

        try:
            submit()
        except Exception:  # the workers could not be started
            _terminate(executor)
            executor.shutdown(wait=True)
            self.inline.extend(batch)
            return [], None
        procs = _processes(executor)
        try:
            while outstanding:
                try:
                    settle(finished.get(
                        timeout=_TICK if self.task_timeout is not None
                        else None))
                except queue.Empty:
                    pass
                submit()
                if self.task_timeout is None:
                    continue
                now = time.monotonic()
                stuck = [f for f, t in started.items()
                         if now - t > self.task_timeout and not f.done()]
                if stuck:
                    killed = True
                    for future in stuck:
                        self.inline.append(outstanding.pop(future))
                        del started[future]
                    break
        finally:
            if outstanding or killed:
                _terminate(executor)
            executor.shutdown(wait=True, cancel_futures=True)
        left.extend(todo)
        # Settle what the shutdown finished or cancelled.  (The stdlib's
        # wait() would block forever on a future cancelled at shutdown.)
        while outstanding:
            future = finished.get()
            if future in outstanding:
                settle(future)
        if killed or not broken:
            return sorted(left), None
        codes = ", ".join(str(proc.exitcode) for proc in procs)
        return sorted(left), f"worker crashed (exit code {codes})"


# ----------------------------------------------------------------------
# Façade
# ----------------------------------------------------------------------
def run_tasks(
    tasks: Sequence[TaskSpec],
    jobs=None,
    *,
    cache: Optional[ResultCache] = None,
    task_timeout: Optional[float] = None,
    progress: Optional[Callable[[TaskResult], None]] = None,
    stats_out: Optional[dict] = None,
) -> List[TaskResult]:
    """Run independent tasks through cache + pool; results in order.

    The cache, when given, keys every task under one snapshot of the
    source (:meth:`ResultCache.task_keys`) and is consulted first: hits
    are returned without executing anything, misses are executed
    (pooled or inline) and stored on success under those keys.
    ``progress`` fires once per task in submission order.
    ``task_timeout`` bounds each pooled attempt in wall-clock seconds.
    ``stats_out`` (a dict) receives worker utilization and cache
    counters for harness reporting.
    """
    t0 = time.perf_counter()
    results: List[Optional[TaskResult]] = [None] * len(tasks)
    keys: Dict[int, str] = {}
    reported = 0

    def land(index: int, result: TaskResult) -> None:
        nonlocal reported
        results[index] = result
        if result.ok and index in keys:
            cache.put(keys[index], result.value)
        if progress is not None:
            while reported < len(results) and results[reported] is not None:
                progress(results[reported])
                reported += 1

    misses: List[int] = []
    batch_keys = (cache.task_keys(tasks) if cache is not None
                  else [None] * len(tasks))
    for index, key in enumerate(batch_keys):
        if key is not None:
            hit, value = cache.get(key)
            if hit:
                land(index, TaskResult(index=index, value=value, cached=True))
                continue
            keys[index] = key
        misses.append(index)

    # An auto request runs inline when the fan-out cannot win: one
    # available core means workers time-slice it, and a few misses never
    # pay back starting the pool.  An explicit -j N is honored as stated.
    jobs_n = resolve_jobs(jobs)
    if jobs_n > 1 and _is_auto_request(jobs) and (
            effective_cpu_count() == 1
            or len(misses) < SPAWN_AMORTIZATION_MIN):
        jobs_n = 1
    stats = {"jobs": jobs_n, "inline": True, "respawns": 0,
             "per_worker_busy_s": [], "per_worker_tasks": []}
    inline, attempts = misses, {}
    if misses and jobs_n > 1:
        fanout = _Fanout(tasks, min(jobs_n, len(misses)), task_timeout, land)
        fanout.run(misses)
        inline, attempts = sorted(fanout.inline), fanout.attempts
        stats.update(
            jobs=fanout.workers, inline=fanout.executors == 0,
            respawns=max(0, fanout.executors - 1),
            per_worker_busy_s=[round(b, 6) for b in fanout.busy.values()],
            per_worker_tasks=list(fanout.done.values()))
    for index in inline:
        land(index, _run_inline(index, tasks[index],
                                attempts.get(index, 0) + 1))
    if stats_out is not None:
        stats_out.update(stats, wall_s=round(time.perf_counter() - t0, 6),
                         tasks=len(tasks), executed=len(misses))
        if cache is not None:
            stats_out["cache"] = cache.stats()
    return results  # type: ignore[return-value]
