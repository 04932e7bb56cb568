"""The exec fan-out: ordering, fallback layers, crash recovery.

The contract of ``run_tasks`` (see ``docs/parallel.md``) is that a
parallel run is indistinguishable from a sequential one except in
wall-clock time, and that misbehaving tasks — raising, hanging,
hard-crashing the worker — cost only their own result.  These tests
exercise each clause with real worker processes where the sandbox
allows them; ``run_tasks`` degrades to inline execution where it does
not, and the ordering assertions below hold either way.  The crash and
timeout tests skip when no worker process can be started.
"""

import os
import time

import pytest

from repro.exec import TaskSpec, resolve_jobs, run_tasks
from repro.exec.pool import JOBS_ENV, MAX_JOBS


# ----------------------------------------------------------------------
# Module-level task bodies (workers import them by reference)
# ----------------------------------------------------------------------
def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad cell {x}")


def crash_once(sentinel):
    """Hard-exit the worker on the first attempt, succeed on the retry."""
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(17)
    return "recovered"


def crash_always(_):
    os._exit(17)


def napper(seconds):
    time.sleep(seconds)
    return "slept"


def jobs_env(_):
    return os.environ.get(JOBS_ENV)


def hang_in_worker(seconds):
    """Hang only inside a pool worker; complete instantly when run
    inline in the parent — models environment-induced hangs."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        time.sleep(seconds)
    return "inline-ok"


# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(2) == 2

    def test_auto_is_effective_cpu_count(self):
        from repro.exec.pool import effective_cpu_count
        assert resolve_jobs("auto") == min(effective_cpu_count(), MAX_JOBS)

    def test_auto_falls_back_to_inline_on_single_cpu(self, monkeypatch):
        # A pooled quick matrix ran at 0.87x sequential on a 1-CPU
        # runner — with one core available, -j auto must mean "run
        # inline".
        import repro.exec.pool as pool_mod
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert pool_mod.auto_jobs() == 1
        assert resolve_jobs("auto") == 1

    def test_auto_respects_affinity_mask_not_machine_size(self, monkeypatch):
        # A 64-core machine with the process pinned to 2 cores gets 2
        # workers, not 64.
        import repro.exec.pool as pool_mod
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        assert pool_mod.auto_jobs() == 2

    def test_effective_cpu_count_survives_missing_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity (macOS/Windows) fall back
        # to cpu_count.
        import repro.exec.pool as pool_mod
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity", None,
                            raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 5)
        from repro.exec.pool import effective_cpu_count
        assert effective_cpu_count() == 5

    def test_zero_and_negative_mean_auto(self):
        assert resolve_jobs(0) == resolve_jobs("auto")
        assert resolve_jobs(-4) == resolve_jobs("auto")

    def test_capped(self):
        assert resolve_jobs(10_000) == MAX_JOBS

    def test_numeric_string(self):
        assert resolve_jobs("2") == 2

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs("fast")


# ----------------------------------------------------------------------
class TestOrderingAndFallback:
    def test_inline_map_preserves_order(self):
        results = run_tasks([TaskSpec(square, (i,)) for i in range(7)],
                            jobs=1)
        assert [r.value for r in results] == [i * i for i in range(7)]
        assert all(r.inline for r in results)

    def test_pooled_matches_inline(self):
        a = run_tasks([TaskSpec(square, (i,)) for i in range(20)], jobs=1)
        b = run_tasks([TaskSpec(square, (i,)) for i in range(20)], jobs=2)
        assert [r.value for r in a] == [r.value for r in b]
        assert [r.index for r in b] == list(range(20))

    def test_on_result_fires_in_submission_order(self):
        seen = []
        run_tasks([TaskSpec(square, (i,)) for i in range(16)], jobs=2,
                  progress=lambda r: seen.append(r.index))
        assert seen == list(range(16))

    def test_closures_fall_back_inline(self):
        captured = 3
        tasks = [TaskSpec(square, (2,)),
                 TaskSpec(lambda: captured * 2)]
        results = run_tasks(tasks, jobs=2)
        assert results[0].value == 4
        assert results[1].value == 6
        assert results[1].inline  # the lambda never left the parent

    def test_raising_task_reports_error_and_siblings_survive(self):
        tasks = [TaskSpec(square, (1,)), TaskSpec(boom, (7,)),
                 TaskSpec(square, (3,))]
        results = run_tasks(tasks, jobs=2)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "ValueError" in results[1].error
        assert "bad cell 7" in results[1].error

    def test_unpicklable_task_runs_inline_siblings_pooled(self):
        tasks = [TaskSpec(square, (i,)) for i in range(6)]
        tasks[2] = TaskSpec(lambda: "closure")  # not picklable
        stats = {}
        results = run_tasks(tasks, jobs=2, stats_out=stats)
        assert [r.value for r in results] == [0, 1, "closure", 9, 16, 25]
        assert results[2].inline
        if not stats["inline"]:
            # the picklable siblings still went to the pool
            assert not any(r.inline for i, r in enumerate(results) if i != 2)

    def test_pooled_task_sees_jobs_pinned_to_one(self, monkeypatch):
        # a harness nested in a pooled task must never start a pool
        monkeypatch.setenv(JOBS_ENV, "4")
        stats = {}
        results = run_tasks([TaskSpec(jobs_env, (i,)) for i in range(2)],
                            jobs=2, stats_out=stats)
        if stats["inline"]:
            pytest.skip("no worker processes in this environment")
        assert [r.value for r in results] == ["1", "1"]
        assert os.environ[JOBS_ENV] == "4"  # the parent is untouched


# ----------------------------------------------------------------------
@pytest.fixture
def real_pool():
    """Crash/timeout semantics need actual worker processes; the crash
    tasks would take the test process down if they ran inline."""
    stats = {}
    run_tasks([TaskSpec(square, (i,)) for i in range(2)], jobs=2,
              stats_out=stats)
    if stats["inline"]:
        pytest.skip("no worker processes in this environment")


@pytest.mark.usefixtures("real_pool")
class TestRobustness:
    def test_worker_crash_retried_once(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        stats = {}
        results = run_tasks([TaskSpec(square, (5,)),
                             TaskSpec(crash_once, (sentinel,))],
                            jobs=2, stats_out=stats)
        assert results[0].value == 25
        assert results[1].value == "recovered"
        assert stats["respawns"] >= 1

    def test_poison_task_errors_out_but_siblings_finish(self):
        # the sibling is still running when the poison task breaks the
        # pool, twice, so it is one of the suspects run one per executor
        results = run_tasks([TaskSpec(crash_always, (0,)),
                             TaskSpec(napper, (0.2,))], jobs=2)
        assert not results[0].ok
        assert results[0].error == "worker crashed (exit code 17)"
        assert results[1].value == "slept"

    def test_task_timeout_kills_only_the_stuck_task(self):
        tasks = [TaskSpec(hang_in_worker, (30.0,)), TaskSpec(square, (4,))]
        t0 = time.perf_counter()
        results = run_tasks(tasks, jobs=2, task_timeout=0.5)
        wall = time.perf_counter() - t0
        # the hung worker is killed; the sibling is unaffected; the
        # stuck task completes on its final inline attempt
        assert results[0].value == "inline-ok"
        assert results[0].inline
        assert results[1].value == 16
        assert not results[1].inline
        assert wall < 20  # nowhere near the 30s nap

    def test_timeout_then_inline_fallback(self):
        """A pooled attempt times out; the task gets one untimed inline
        attempt in the parent and succeeds (no pooled retry: the tasks
        are deterministic, a real hang would hang again)."""
        tasks = [TaskSpec(hang_in_worker, (30.0,)), TaskSpec(square, (9,))]
        results = run_tasks(tasks, jobs=2, task_timeout=0.4)
        assert results[0].value == "inline-ok"
        assert results[0].inline
        # one pooled start + the inline attempt
        assert results[0].attempts == 2
        assert results[1].value == 81

    def test_siblings_behind_a_hang_move_to_a_fresh_executor(self):
        """Killing a stuck executor also kills the sibling it was running
        and the ones queued behind; they finish on a fresh executor.  A
        kill is not a crash: after two kills the rest still share one
        executor instead of getting one each."""
        hang = TaskSpec(hang_in_worker, (30.0,))
        nap = TaskSpec(napper, (0.3,))
        tasks = [hang] + [nap] * 3 + [hang] + [nap] * 8
        stats = {}
        results = run_tasks(tasks, jobs=2, task_timeout=1.0,
                            stats_out=stats)
        assert results[0].value == results[4].value == "inline-ok"
        naps = results[1:4] + results[5:]
        assert [r.value for r in naps] == ["slept"] * 11
        assert not any(r.inline for r in naps)
        assert any(r.attempts > 1 for r in naps)  # were resubmitted
        assert stats["respawns"] == 2  # one fresh executor per kill


# ----------------------------------------------------------------------
class TestRunTasksFacade:
    def test_results_and_stats(self):
        stats = {}
        results = run_tasks([TaskSpec(square, (i,)) for i in range(5)],
                            jobs=2, stats_out=stats)
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert stats["tasks"] == 5
        assert stats["executed"] == 5
        assert stats["jobs"] == 2
        assert set(stats) == {"jobs", "inline", "respawns", "wall_s",
                              "per_worker_busy_s", "per_worker_tasks",
                              "tasks", "executed"}
        if not stats["inline"]:
            assert stats["respawns"] == 0
            assert sum(stats["per_worker_tasks"]) == 5

    def test_progress_in_submission_order(self):
        seen = []
        run_tasks([TaskSpec(square, (i,)) for i in range(10)], jobs=2,
                  progress=lambda r: seen.append(r.index))
        assert seen == list(range(10))

    def test_sequential_default(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        stats = {}
        results = run_tasks([TaskSpec(square, (3,))], stats_out=stats)
        assert results[0].value == 9
        assert stats["jobs"] == 1

    def test_executor_sized_to_misses(self):
        # an explicit -j 4 over one cell starts one worker, not four
        stats = {}
        run_tasks([TaskSpec(square, (3,))], jobs=4, stats_out=stats)
        assert stats["jobs"] == 1

    def test_render_parity_with_sequential_cli(self):
        from repro.bench.cells import (plan_experiment, plan_tasks,
                                       render_results)

        plans = plan_experiment("barrier", [2])
        sequential = render_results(plans, run_tasks(plan_tasks(plans),
                                                     jobs=1))
        pooled = render_results(plans, run_tasks(plan_tasks(plans), jobs=2))
        assert pooled == sequential
