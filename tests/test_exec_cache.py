"""Content fingerprints and the on-disk result cache.

The cache's one safety property: it may only return a value for *the
same computation* — same callable, same arguments, same source tree.
So the fingerprint tests focus on (a) stability across calls, (b)
sensitivity to every component, and (c) refusing to key anything whose
identity is not derivable from content (a wrong key is strictly worse
than no cache).
"""

import functools
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.exec import (
    ResultCache,
    TaskSpec,
    UnstableFingerprint,
    run_tasks,
    source_fingerprint,
    stable_fingerprint,
    stable_repr,
)
from repro.exec.cache import invalidate_fingerprint_memo
from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL


def job(x, scale=1):
    return x * scale


def rewrite(path, text):
    """A task that edits the source tree its batch was keyed under."""
    Path(path).write_text(text)
    return text


def nested(cache_root, src_root, path, text):
    """Edit the source, then run a batch of one through a cache on it."""
    Path(path).write_text(text)
    cache = ResultCache(root=cache_root, source_roots=[src_root])
    [result] = run_tasks([TaskSpec(job, (7,))], jobs=1, cache=cache)
    return result.value


def _entries_by_generation(cache):
    return {gen.name: sum(1 for _ in gen.rglob("*.pkl"))
            for gen in cache._dir().iterdir()}


# ----------------------------------------------------------------------
class TestStableRepr:
    def test_primitives(self):
        assert stable_repr(3) == "3"
        assert stable_repr("hi") == "'hi'"
        assert stable_repr(None) == "None"
        assert stable_repr(True) == "True"

    def test_floats_are_exact(self):
        # hex form: no formatting round-off can alias two close floats
        assert stable_repr(0.1) == (0.1).hex()
        assert stable_repr(float("nan")) == "float:nan"

    def test_container_determinism(self):
        assert stable_repr({"b": 1, "a": 2}) == stable_repr({"a": 2, "b": 1})
        assert stable_repr({3, 1, 2}) == stable_repr({2, 3, 1})
        assert stable_repr([1, 2]) != stable_repr((1, 2))

    def test_ndarray_content_keyed(self):
        a = np.arange(4.0)
        b = np.arange(4.0)
        c = np.arange(4.0) + 1
        assert stable_repr(a) == stable_repr(b)
        assert stable_repr(a) != stable_repr(c)

    def test_dataclass_by_fields(self):
        assert stable_repr(UHCAF_2LEVEL) == stable_repr(UHCAF_2LEVEL)
        assert stable_repr(UHCAF_2LEVEL) != stable_repr(UHCAF_1LEVEL)

    def test_partial_by_target_and_args(self):
        p1 = functools.partial(job, 3, scale=2)
        p2 = functools.partial(job, 3, scale=2)
        p3 = functools.partial(job, 4, scale=2)
        assert stable_repr(p1) == stable_repr(p2)
        assert stable_repr(p1) != stable_repr(p3)

    def test_identity_reprs_refused(self):
        with pytest.raises(UnstableFingerprint):
            stable_repr(object())
        with pytest.raises(UnstableFingerprint):
            stable_repr(lambda: None)


class TestStableFingerprint:
    def test_stable_across_calls(self):
        a = stable_fingerprint(TaskSpec(job, (3,), {"scale": 2}))
        b = stable_fingerprint(TaskSpec(job, (3,), {"scale": 2}))
        assert a == b

    def test_sensitive_to_every_component(self):
        base = stable_fingerprint(TaskSpec(job, (3,), {"scale": 2}))
        assert stable_fingerprint(TaskSpec(job, (4,), {"scale": 2})) != base
        assert stable_fingerprint(TaskSpec(job, (3,), {"scale": 3})) != base

    def test_explicit_cache_key_override(self):
        a = stable_fingerprint(TaskSpec(job, (1,), cache_key="same"))
        b = stable_fingerprint(TaskSpec(job, (2,), cache_key="same"))
        assert a == b


# ----------------------------------------------------------------------
class TestSourceFingerprint:
    def test_tracks_file_content(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("X = 1\n")
        invalidate_fingerprint_memo()
        before = source_fingerprint([tmp_path])
        src.write_text("X = 2\n")
        invalidate_fingerprint_memo()
        after = source_fingerprint([tmp_path])
        assert before != after

    def test_stat_scan_revalidates_without_explicit_invalidation(self, tmp_path):
        """An ordinary edit (mtime/size change) is picked up by the memo's
        stat-scan guard — no ``invalidate_fingerprint_memo()`` required —
        so the next batch a process keys sees the edited tree."""
        src = tmp_path / "mod.py"
        src.write_text("X = 1\n")
        before = source_fingerprint([tmp_path])
        src.write_text("X = 2\n")  # no invalidation call on purpose
        assert source_fingerprint([tmp_path]) != before

    def test_file_set_change_revalidates(self, tmp_path):
        (tmp_path / "a.py").write_text("A = 1\n")
        before = source_fingerprint([tmp_path])
        (tmp_path / "b.py").write_text("B = 1\n")
        middle = source_fingerprint([tmp_path])
        assert middle != before
        (tmp_path / "b.py").unlink()
        assert source_fingerprint([tmp_path]) == before

    def test_memoized_when_stats_unchanged(self, tmp_path):
        """The scan's documented blind spot: a same-size rewrite with the
        mtime faked back to the original is invisible — the memo serves
        the old digest until explicitly invalidated."""
        import os

        src = tmp_path / "mod.py"
        src.write_text("X = 1\n")
        before = source_fingerprint([tmp_path])
        st = src.stat()
        src.write_text("X = 9\n")  # same size
        os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert source_fingerprint([tmp_path]) == before  # memo, by design
        invalidate_fingerprint_memo()
        assert source_fingerprint([tmp_path]) != before


# ----------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        task = TaskSpec(job, (21,), {"scale": 2})
        key = cache.task_key(task)
        assert key is not None
        hit, _ = cache.get(key)
        assert not hit
        assert cache.put(key, 42)
        hit, value = cache.get(key)
        assert hit and value == 42
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.task_key(TaskSpec(job, (1,)))
        cache.put(key, "fine")
        # clobber the entry on disk
        [path] = list((tmp_path / cache.namespace).rglob("*.pkl"))
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit
        assert cache.entry_count() == 0  # dropped, not left to rot

    def test_unkeyable_task_gets_no_key(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.task_key(TaskSpec(lambda: 1)) is None
        assert cache.unkeyed == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for i in range(3):
            cache.put(cache.task_key(TaskSpec(job, (i,))), i)
        assert cache.clear() == 3
        assert cache.entry_count() == 0

    def test_namespaces_are_disjoint(self, tmp_path):
        a = ResultCache(root=tmp_path, namespace="a")
        b = ResultCache(root=tmp_path, namespace="b")
        key = a.task_key(TaskSpec(job, (1,)))
        a.put(key, "from-a")
        hit, _ = b.get(key)
        assert not hit

    def test_transient_oserror_is_a_miss_that_keeps_the_entry(
            self, tmp_path, monkeypatch):
        """A read that fails with a *transient* I/O error (concurrent
        ``os.replace`` mid-read, momentary EPERM) must not destroy the
        entry — it is almost certainly valid and the next read gets it."""
        import builtins

        cache = ResultCache(root=tmp_path)
        key = cache.task_key(TaskSpec(job, (7,)))
        cache.put(key, 49)
        entry = cache._path(key)
        real_open = builtins.open

        def flaky_open(file, *args, **kwargs):
            if str(file) == str(entry):
                raise PermissionError(13, "transient EPERM", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", flaky_open)
        hit, _ = cache.get(key)
        assert not hit
        monkeypatch.undo()
        assert cache.transient_errors == 1
        assert cache.corrupt == 0
        assert entry.exists()  # NOT unlinked
        hit, value = cache.get(key)  # next reader is fine
        assert hit and value == 49

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.task_key(TaskSpec(job, (1,)))
        cache.put(key, 1)
        # simulate a put() that died between mkstemp and os.replace
        orphan = cache._path(key).parent / "orphanXYZ.tmp"
        orphan.write_bytes(b"half-written")
        assert cache.clear() == 1
        assert not orphan.exists()
        assert cache.total_bytes() == 0


# ----------------------------------------------------------------------
class TestEviction:
    def _fill(self, cache, n, start=0):
        for i in range(start, start + n):
            cache.put(cache.task_key(TaskSpec(job, (i,))), b"x" * 100)

    def test_aged_tmp_orphans_swept_fresh_ones_kept(self, tmp_path):
        import os
        import time as _time

        cache = ResultCache(root=tmp_path)
        self._fill(cache, 1)
        parent = cache._dir() / cache.generation()
        old = parent / "dead.tmp"
        old.write_bytes(b"crashed writer debris")
        past = _time.time() - 3600
        os.utime(old, (past, past))
        fresh = parent / "live.tmp"
        fresh.write_bytes(b"in-progress put")
        out = cache.evict(tmp_grace_s=300.0)
        assert out["tmp_removed"] == 1
        assert not old.exists()
        assert fresh.exists()  # inside the grace window: a live writer
        assert cache.entry_count() == 1  # entries untouched

    def test_stale_generations_swept_wholesale(self, tmp_path):
        src_root = tmp_path / "src"
        src_root.mkdir()
        (src_root / "mod.py").write_text("X = 1\n")
        cache = ResultCache(root=tmp_path / "c", source_roots=[src_root])
        self._fill(cache, 3)
        gen1 = cache.generation()
        (src_root / "mod.py").write_text("X = 22\n")
        assert cache.generation() != gen1  # stat scan saw the edit
        self._fill(cache, 3, start=10)
        assert cache.entry_count() == 6
        out = cache.evict()
        assert out["stale_generations"] == 1
        assert out["entries_removed"] == 3
        assert cache.entry_count() == 3
        assert not (cache._dir() / gen1).exists()  # dirs pruned too

    def test_disk_bound_holds_across_generation_churn(self, tmp_path):
        """Three generations of source churn with a byte bound: usage
        must stay bounded — stale generations can never hit again, so a
        long-lived server must not let them pile up."""
        src_root = tmp_path / "src"
        src_root.mkdir()
        bound = 3000
        for gen in range(3):
            (src_root / "mod.py").write_text(f"X = {gen}\n" * (gen + 1))
            cache = ResultCache(root=tmp_path / "c", source_roots=[src_root])
            self._fill(cache, 12, start=gen * 100)
            cache.evict(max_bytes=bound)
            assert cache.total_bytes() <= bound
        # current-generation entries survive to serve hits
        assert cache.entry_count() > 0
        key = cache.task_key(TaskSpec(job, (2 * 100 + 11,)))
        hit, _ = cache.get(key)
        assert hit

    def test_max_entries_bound(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        self._fill(cache, 8)
        out = cache.evict(max_entries=3)
        assert out["entries_removed"] == 5
        assert cache.entry_count() == 3
        assert cache.evicted == 5


# ----------------------------------------------------------------------
class TestRunTasksCaching:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        tasks = lambda: [TaskSpec(job, (i,), {"scale": 3}) for i in range(6)]  # noqa: E731
        cold = run_tasks(tasks(), jobs=1, cache=cache)
        assert cache.puts == 6
        warm_cache = ResultCache(root=tmp_path)
        warm = run_tasks(tasks(), jobs=1, cache=warm_cache)
        assert warm_cache.hits == 6
        assert [r.value for r in warm] == [r.value for r in cold]
        assert all(r.cached for r in warm)

    def test_source_change_invalidates(self, tmp_path):
        src_root = tmp_path / "src"
        src_root.mkdir()
        (src_root / "mod.py").write_text("X = 1\n")
        invalidate_fingerprint_memo()
        cache = ResultCache(root=tmp_path / "cache", source_roots=[src_root])
        run_tasks([TaskSpec(job, (5,))], jobs=1, cache=cache)
        assert cache.puts == 1

        (src_root / "mod.py").write_text("X = 2\n")
        invalidate_fingerprint_memo()
        fresh = ResultCache(root=tmp_path / "cache", source_roots=[src_root])
        run_tasks([TaskSpec(job, (5,))], jobs=1, cache=fresh)
        assert fresh.hits == 0 and fresh.misses == 1
        invalidate_fingerprint_memo()

    def test_batch_outliving_a_source_edit_stays_in_its_generation(
            self, tmp_path):
        """A task that edits the source mid-batch does not move the rest
        of the batch: every entry lands in the generation the batch was
        keyed under, where a later batch on that source finds it."""
        src_root = tmp_path / "src"
        src_root.mkdir()
        sim = src_root / "sim.py"
        sim.write_text("X = 1\n")
        cache = ResultCache(root=tmp_path / "cache", source_roots=[src_root])
        start = cache.generation()
        tasks = [TaskSpec(job, (1,)),
                 TaskSpec(rewrite, (str(sim), "X = 22\n")),
                 TaskSpec(job, (2,))]
        assert all(r.ok for r in run_tasks(tasks, jobs=1, cache=cache))
        assert cache.generation() != start
        assert _entries_by_generation(cache) == {start: 3}

        sim.write_text("X = 1\n")
        again = ResultCache(root=tmp_path / "cache", source_roots=[src_root])
        run_tasks([TaskSpec(job, (1,)), TaskSpec(job, (2,))], jobs=1,
                  cache=again)
        assert again.hits == 2

    def test_unkeyable_tasks_run_every_time(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        make = lambda: [TaskSpec(lambda: 7)]  # noqa: E731
        first = run_tasks(make(), jobs=1, cache=cache)
        second = run_tasks(make(), jobs=1, cache=cache)
        assert first[0].value == second[0].value == 7
        assert cache.hits == 0 and cache.puts == 0

    def test_failed_tasks_never_cached(self, tmp_path):
        from tests.test_exec_pool import boom

        cache = ResultCache(root=tmp_path)
        results = run_tasks([TaskSpec(boom, (1,))], jobs=1, cache=cache)
        assert not results[0].ok
        assert cache.puts == 0
        assert cache.entry_count() == 0

    def test_errors_rerun_after_failure(self, tmp_path):
        from tests.test_exec_pool import boom

        cache = ResultCache(root=tmp_path)
        run_tasks([TaskSpec(boom, (1,))], jobs=1, cache=cache)
        again = ResultCache(root=tmp_path)
        results = run_tasks([TaskSpec(boom, (1,))], jobs=1, cache=again)
        assert not results[0].ok  # re-executed, same verdict, not served
        assert again.hits == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unwritable_cache_never_fails_a_cell(self, tmp_path, jobs):
        """A cache root that cannot hold directories (a regular file)
        costs the cache entries, never the cells or the sweep."""
        root = tmp_path / "not-a-directory"
        root.write_text("")
        cache = ResultCache(root=root)
        tasks = [TaskSpec(abs, (-3,))] + [TaskSpec(job, (i,)) for i in range(4)]
        results = run_tasks(tasks, jobs=jobs, cache=cache)
        assert [r.value for r in results] == [3, 0, 1, 2, 3]
        assert all(r.ok for r in results)
        assert cache.puts == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_failure_is_not_a_task_error(self, tmp_path, jobs):
        """Callbacks run outside the task's error handler: a raising
        progress callback surfaces to the caller once, instead of being
        recorded as the cell's failure."""
        seen = []

        def progress(result):
            seen.append(result)
            raise RuntimeError("progress sink closed")

        with pytest.raises(RuntimeError, match="progress sink closed"):
            run_tasks([TaskSpec(job, (i,)) for i in range(4)], jobs=jobs,
                      cache=ResultCache(root=tmp_path), progress=progress)
        assert len(seen) == 1 and seen[0].ok


# ----------------------------------------------------------------------
class TestSourceScans:
    """A batch scans the source tree once; a key needs no scan after."""

    @pytest.fixture
    def scans(self, monkeypatch):
        from repro.exec import cache as cache_module

        calls = []
        scan = cache_module._stat_signature

        def counted(roots):
            calls.append(roots)
            return scan(roots)

        monkeypatch.setattr(cache_module, "_stat_signature", counted)
        return calls

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_scan_per_batch(self, tmp_path, scans, jobs):
        tasks = [TaskSpec(job, (i,)) for i in range(6)]
        cold = ResultCache(root=tmp_path)
        run_tasks(tasks, jobs=jobs, cache=cold)
        assert cold.puts == 6
        assert len(scans) == 1
        warm = ResultCache(root=tmp_path)
        run_tasks(tasks + [TaskSpec(job, (9,))], jobs=jobs, cache=warm)
        assert warm.hits == 6 and warm.puts == 1
        assert len(scans) == 2

    def test_get_and_put_do_not_scan(self, tmp_path, scans):
        cache = ResultCache(root=tmp_path)
        key = cache.task_key(TaskSpec(job, (3,)))
        assert key.startswith(cache.generation())
        del scans[:]
        assert cache.put(key, 9)
        assert cache.get(key) == (True, 9)
        assert scans == []

    def test_nested_batch_keeps_the_outer_generation(self, tmp_path, scans):
        """An inline task that edits the source and runs a batch of its
        own leaves the outer batch's entries in the outer generation."""
        src_root = tmp_path / "src"
        src_root.mkdir()
        sim = src_root / "sim.py"
        sim.write_text("X = 1\n")
        root = tmp_path / "cache"
        cache = ResultCache(root=root, source_roots=[src_root])
        outer = cache.generation()
        del scans[:]
        tasks = [TaskSpec(job, (1,)),
                 TaskSpec(nested, (str(root), str(src_root), str(sim),
                                   "X = 22\n")),
                 TaskSpec(job, (2,))]
        results = run_tasks(tasks, jobs=1, cache=cache)
        assert [r.value for r in results] == [1, 7, 2]
        assert len(scans) == 2  # the outer batch's and the nested one's
        inner = cache.generation()
        assert _entries_by_generation(cache) == {outer: 3, inner: 1}


# ----------------------------------------------------------------------
class TestCachedValueFidelity:
    def test_pickle_roundtrip_preserves_equality(self, tmp_path):
        """What goes in is what comes out — byte-identical re-render."""
        cache = ResultCache(root=tmp_path)
        value = {"table": [1.5, float("inf")], "arr": (1, 2, 3)}
        key = cache.task_key(TaskSpec(job, (9,)))
        cache.put(key, value)
        _, out = cache.get(key)
        assert out == value
        assert pickle.dumps(out) == pickle.dumps(value)
