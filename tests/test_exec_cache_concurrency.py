"""Concurrent access to the result cache.

The cache is shared by design: parallel CLI runs and
``python -m repro.exec --evict`` can touch one directory tree at once.
These tests pin the two properties that make that safe:

* concurrent ``put``/``get`` on the same keys never yields a *wrong*
  value — a reader sees a miss or the (single, correct) value, never a
  torn entry (atomic ``os.replace`` publication);
* eviction never breaks a reader mid-read — POSIX ``unlink`` leaves an
  already-open handle fully readable.
"""

import multiprocessing
import pickle

from repro.exec import ResultCache, TaskSpec


def job(x):
    return x * 2


def _expected(i: int) -> str:
    return f"value-{i}" * 20


def _hammer_put(root, src_root, n, rounds):
    cache = ResultCache(root=root, source_roots=[src_root])
    for _ in range(rounds):
        for i in range(n):
            key = cache.task_key(TaskSpec(job, (i,)))
            cache.put(key, _expected(i))


def _hammer_get(root, src_root, n, rounds, out_queue):
    cache = ResultCache(root=root, source_roots=[src_root])
    bad = 0
    hits = 0
    for _ in range(rounds):
        for i in range(n):
            key = cache.task_key(TaskSpec(job, (i,)))
            hit, value = cache.get(key)
            if hit:
                hits += 1
                if value != _expected(i):
                    bad += 1
    out_queue.put((hits, bad, cache.corrupt))


class TestTwoProcessRace:
    def test_put_get_race_never_serves_a_torn_entry(self, tmp_path):
        """One process rewrites the same keys in a loop while another
        reads them: every hit must deliver the exact stored value."""
        src_root = tmp_path / "src"
        src_root.mkdir()
        (src_root / "mod.py").write_text("X = 1\n")
        root = tmp_path / "cache"
        n, rounds = 8, 30
        ctx = multiprocessing.get_context()
        results: multiprocessing.Queue = ctx.Queue()
        writer = ctx.Process(target=_hammer_put,
                             args=(root, src_root, n, rounds))
        reader = ctx.Process(target=_hammer_get,
                             args=(root, src_root, n, rounds, results))
        writer.start()
        reader.start()
        writer.join(60)
        reader.join(60)
        assert writer.exitcode == 0
        assert reader.exitcode == 0
        hits, bad, corrupt = results.get(timeout=10)
        assert bad == 0, f"{bad} hit(s) delivered a wrong value"
        assert corrupt == 0, "atomic publication must never expose a torn entry"
        # sanity: the race actually exercised the read path
        cache = ResultCache(root=root, source_roots=[src_root])
        key = cache.task_key(TaskSpec(job, (0,)))
        hit, value = cache.get(key)
        assert hit and value == _expected(0)


class TestEvictionVsReaders:
    def test_unlink_leaves_open_handles_readable(self, tmp_path):
        """A reader that already opened an entry keeps it even if
        eviction unlinks the path underneath (POSIX semantics) — so
        eviction never has to coordinate with in-progress reads."""
        cache = ResultCache(root=tmp_path)
        key = cache.task_key(TaskSpec(job, (5,)))
        cache.put(key, {"payload": list(range(50))})
        path = cache._path(key)
        with open(path, "rb") as mid_read:
            out = cache.evict(max_entries=0)  # evict *everything*
            assert out["entries_removed"] == 1
            assert not path.exists()
            # the open handle still reads the full, valid entry
            assert pickle.load(mid_read) == {"payload": list(range(50))}
        # later readers see an ordinary miss, not an error
        hit, _ = cache.get(key)
        assert not hit
        assert cache.corrupt == 0

