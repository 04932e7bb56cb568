"""Parallel == sequential, end to end through the real harnesses.

The exec layer's headline promise is that ``--jobs N`` changes only the
wall clock: the conformance matrix, the fuzz sweep, and a warm-cache
re-run must all produce results equal to the sequential run, field for
field, and render to identical output.  (Raw pickle *streams* are not
compared: equal object graphs pickle differently depending on which
string objects happen to be shared, which is identity, not content.)
"""

import numpy as np

from repro.exec import ResultCache
from repro.exec.cache import invalidate_fingerprint_memo
from repro.verify import fuzz_schedules
from repro.verify.conformance import build_matrix, run_matrix


def _small_matrix():
    """A fast slice of the quick matrix: one kind's two smoke
    algorithms on every shape under every fault schedule."""
    return build_matrix(quick=True, kinds=["barrier"],
                        algs=["dissemination", "tdlb"])


# ----------------------------------------------------------------------
class TestMatrixEquivalence:
    def test_pooled_matrix_matches_sequential(self):
        cases = _small_matrix()
        assert cases, "quick barrier matrix unexpectedly empty"
        seq = run_matrix(cases, seeds=2, jobs=1)
        par = run_matrix(cases, seeds=2, jobs=4)
        assert par == seq
        assert repr(par) == repr(seq)

    def test_progress_order_is_identical(self):
        cases = _small_matrix()
        seq_labels, par_labels = [], []
        run_matrix(cases, seeds=2, jobs=1,
                   progress=lambda r: seq_labels.append(r.case.label))
        run_matrix(cases, seeds=2, jobs=2,
                   progress=lambda r: par_labels.append(r.case.label))
        assert par_labels == seq_labels == [c.label for c in cases]


# ----------------------------------------------------------------------
def _fuzz_main(ctx):
    me = ctx.this_image()
    value = (np.arange(4, dtype=np.float64) + 1.0) * me
    total = yield from ctx.co_reduce(value, op="sum")
    yield from ctx.sync_all()
    return float(np.sum(total))


class TestFuzzEquivalence:
    def test_pooled_fuzz_matches_sequential(self):
        kwargs = dict(seeds=4, num_images=4, images_per_node=2)
        seq = fuzz_schedules(_fuzz_main, jobs=1, **kwargs)
        par = fuzz_schedules(_fuzz_main, jobs=3, **kwargs)
        assert seq.ok and par.ok
        assert [o.seed for o in par.outcomes] == [o.seed for o in seq.outcomes]
        assert par == seq
        assert par.render() == seq.render()

    def test_closure_main_still_fuzzes(self):
        """An unpicklable program falls back inline, same report."""
        bias = 2.0

        def main(ctx):
            total = yield from ctx.co_sum(
                np.full(2, ctx.this_image() + bias))
            yield from ctx.sync_all()
            return float(total[0])

        report = fuzz_schedules(main, seeds=2, num_images=2,
                                images_per_node=2, jobs=2)
        assert report.ok


# ----------------------------------------------------------------------
class TestCacheEquivalence:
    def test_cold_then_warm_matrix_is_byte_identical(self, tmp_path):
        cases = _small_matrix()
        seq = run_matrix(cases, seeds=2, jobs=1)

        cold_cache = ResultCache(root=tmp_path, namespace="t")
        cold = run_matrix(cases, seeds=2, jobs=2, cache=cold_cache)
        assert cold_cache.hits == 0
        assert cold == seq and repr(cold) == repr(seq)

        warm_cache = ResultCache(root=tmp_path, namespace="t")
        warm = run_matrix(cases, seeds=2, jobs=2, cache=warm_cache)
        assert warm_cache.hits == len(cases)  # 100% served from disk
        assert warm == seq and repr(warm) == repr(seq)

    def test_source_change_forces_rerun(self, tmp_path):
        """A cache keyed to a mutable source tree drops its entries the
        moment any source file changes."""
        cases = _small_matrix()[:2]
        src_root = tmp_path / "src"
        src_root.mkdir()
        (src_root / "sim.py").write_text("VERSION = 1\n")
        invalidate_fingerprint_memo()
        try:
            first = ResultCache(root=tmp_path / "cache", namespace="t",
                                source_roots=[src_root])
            run_matrix(cases, seeds=2, jobs=1, cache=first)
            assert first.puts == len(cases)

            (src_root / "sim.py").write_text("VERSION = 2\n")
            invalidate_fingerprint_memo()
            second = ResultCache(root=tmp_path / "cache", namespace="t",
                                 source_roots=[src_root])
            run_matrix(cases, seeds=2, jobs=1, cache=second)
            assert second.hits == 0
            assert second.misses == len(cases)
        finally:
            invalidate_fingerprint_memo()
