"""The runtime's statement wrappers (``sync_all``, ``co_sum``, ...).

With no fault manager and no ``stat=``, a statement returns the
algorithm's generator itself; ``stat=`` or a fault schedule puts the
entry checks and the ``stat=`` handling back around it.
"""

import pytest

from repro.faults import (
    FAILED,
    STAT_FAILED_IMAGE,
    FailedImageError,
    FaultSchedule,
    ImageFailure,
    Stat,
)
from repro.sim import ProcessFailure
from tests.conftest import run_small

FAIL_3_AT_20US = FaultSchedule(failures=(ImageFailure(3, 20e-6),))

#: the guard generators; a flat statement resumes through neither
GUARDS = {"_guarding", "_catching"}


def _statement(ctx, op, stat=None):
    if op == "sync_all":
        return ctx.sync_all(stat=stat)
    if op == "co_sum":
        return ctx.co_sum(ctx.this_image(), stat=stat)
    return ctx.co_broadcast(ctx.this_image(), source_image=1, stat=stat)


OPS = ("sync_all", "co_sum", "co_broadcast")


@pytest.mark.parametrize("op", OPS)
def test_flat_without_faults_or_stat(op):
    def main(ctx):
        gen = _statement(ctx, op)
        flat = gen.gi_code.co_name not in GUARDS
        yield from gen
        guarded = _statement(ctx, op, stat=Stat())
        wrapped = guarded.gi_code.co_name in GUARDS
        yield from guarded
        return flat, wrapped

    result = run_small(main, images=4)
    assert result.results == [(True, True)] * 4


@pytest.mark.parametrize("op", OPS)
def test_stat_reports_failed_image(op):
    def main(ctx):
        st = Stat()
        for _ in range(10):
            yield from _statement(ctx, op, stat=st)
            if not st.ok:
                return st.code, tuple(st.failed_indices)
            yield from ctx.compute(seconds=5e-6)
        return "no failure seen"

    result = run_small(main, images=4, faults=FAIL_3_AT_20US)
    for img, out in enumerate(result.results, start=1):
        assert out == (FAILED if img == 3 else (STAT_FAILED_IMAGE, (3,)))


@pytest.mark.parametrize("op", OPS)
def test_fault_schedule_without_stat_raises(op):
    def main(ctx):
        for _ in range(10):
            yield from _statement(ctx, op)
            yield from ctx.compute(seconds=5e-6)

    with pytest.raises(ProcessFailure) as exc:
        run_small(main, images=4, faults=FAIL_3_AT_20US)
    assert isinstance(exc.value.original, FailedImageError)


def test_sync_all_trace_records_call_time_and_order():
    """``sync_all`` logs when it is called, which is the instant and
    program position at which ``yield from`` starts it."""
    def main(ctx):
        trace = ctx.world.trace
        issued = []
        for k in range(3):
            yield from ctx.compute(seconds=1e-6 * ctx.this_image() * (k + 1))
            before = len(trace)
            gen = ctx.sync_all()
            assert len(trace) == before + 1  # logged before the first resume
            issued.append(ctx.now)
            yield from gen
        return issued

    result = run_small(main, images=4, trace=True)
    rows = [(t, img) for t, img, op, _ in result.trace if op == "sync_all"]
    assert sorted(rows) == sorted(
        (t, img) for img, times in enumerate(result.results, start=1)
        for t in times)
    assert rows == sorted(rows)  # chronological; same-instant rows by image
