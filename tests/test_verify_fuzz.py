"""Schedule fuzzing: the engine's seeded tie-break policy and the
:func:`repro.verify.fuzz_schedules` driver.

The two invariants that matter:

* with ``tiebreak_seed=None`` the schedule is the historical
  insertion-order one, bit-for-bit — fuzzing is strictly opt-in;
* any seed produces a *legal* interleaving (only same-instant ties are
  permuted), reproducibly for that seed.
"""

import re

import numpy as np
import pytest

from repro.sim import Engine
from repro.verify import FuzzError, fuzz_schedules
from tests.conftest import run_small


# ----------------------------------------------------------------------
# Engine-level tie-break policy
# ----------------------------------------------------------------------
class TestTiebreakPolicy:
    @staticmethod
    def _order(seed, labels=8):
        engine = Engine(tiebreak_seed=seed)
        fired = []
        for i in range(labels):
            engine.schedule(1.0, lambda i=i: fired.append(i), label=f"e{i}")
        engine.run()
        return fired

    def test_default_is_insertion_order(self):
        assert self._order(None) == list(range(8))

    def test_seed_permutes_ties_deterministically(self):
        once = self._order(42)
        again = self._order(42)
        assert once == again
        assert sorted(once) == list(range(8))

    def test_some_seed_changes_the_order(self):
        assert any(self._order(s) != list(range(8)) for s in range(1, 21))

    def test_different_times_never_reordered(self):
        engine = Engine(tiebreak_seed=7)
        fired = []
        for i in range(6):
            engine.schedule(float(i), lambda i=i: fired.append(i))
        engine.run()
        assert fired == list(range(6))

    def test_seed_exposed(self):
        assert Engine().tiebreak_seed is None
        assert Engine(tiebreak_seed=9).tiebreak_seed == 9


# ----------------------------------------------------------------------
# Whole-program determinism
# ----------------------------------------------------------------------
def _reduce_main(ctx):
    me = ctx.this_image()
    value = (np.arange(8, dtype=np.float64) + 1.0) / (me + 0.5)
    total = yield from ctx.co_reduce(value, op="sum")
    yield from ctx.sync_all()
    return float(np.sum(total))


def _normalized_trace(result):
    # The team uid in trace details is a process-global counter; strip it
    # so runs from different tests compare equal.
    return [(t, img, op, re.sub(r"team\d+", "teamN", detail))
            for t, img, op, detail in result.trace]


class TestRunDeterminism:
    def test_default_runs_are_bit_identical(self):
        a = run_small(_reduce_main, images=4, trace=True)
        b = run_small(_reduce_main, images=4, trace=True)
        assert a.time == b.time
        assert a.results == b.results
        assert _normalized_trace(a) == _normalized_trace(b)

    def test_same_seed_runs_are_bit_identical(self):
        a = run_small(_reduce_main, images=4, trace=True, tiebreak_seed=5)
        b = run_small(_reduce_main, images=4, trace=True, tiebreak_seed=5)
        assert a.time == b.time
        assert _normalized_trace(a) == _normalized_trace(b)


# ----------------------------------------------------------------------
# The fuzz driver
# ----------------------------------------------------------------------
class TestFuzzSchedules:
    def test_clean_program_passes(self):
        report = fuzz_schedules(
            _reduce_main, seeds=5, num_images=4, images_per_node=2
        )
        assert report.ok
        assert len(report.outcomes) == 5
        assert all(o.seed == s for o, s in zip(report.outcomes, range(1, 6)))
        assert "interleaving-independent" in report.render()

    def test_explicit_seed_list(self):
        report = fuzz_schedules(
            _reduce_main, seeds=[11, 23], num_images=4, images_per_node=2
        )
        assert [o.seed for o in report.outcomes] == [11, 23]

    def test_racy_program_fails(self):
        # Both images atomic_define image 1's copy with different values
        # and no ordering between the stores: a WAW race, and the read
        # value is interleaving-dependent.
        def racy(ctx):
            me = ctx.this_image()
            var = yield from ctx.atomic_var("flag")
            yield from ctx.atomic_define(var, 1, me)
            yield from ctx.sync_all()
            return ctx.atomic_ref(var) if me == 1 else None

        with pytest.raises(FuzzError) as excinfo:
            fuzz_schedules(racy, seeds=5, num_images=2, images_per_node=2)
        report = excinfo.value.report
        assert not report.ok
        assert any(o.races for o in [report.baseline, *report.outcomes])

    def test_deadlocking_program_reported(self):
        def skipper(ctx):
            if ctx.this_image() == 1:
                yield from ctx.sync_all()
            return None

        report = fuzz_schedules(
            skipper, seeds=2, num_images=2, images_per_node=2, check=False
        )
        assert not report.ok
        assert report.baseline.error is not None
        assert "deadlock" in report.baseline.error
        assert "image2" in report.baseline.error

    def test_extract_hook(self):
        report = fuzz_schedules(
            _reduce_main, seeds=2, num_images=4, images_per_node=2,
            extract=lambda res: res.results[0],
        )
        assert report.ok
