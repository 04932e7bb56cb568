"""Tests for cross-cutting runtime features: noise-free compute, tracing,
custom reduction operations."""

import pytest

from repro.runtime.config import UHCAF_2LEVEL
from repro.runtime.program import CafContext
from tests.conftest import run_small


class TestJitter:
    """Compute carries no OS-noise jitter: equal work ends at equal
    simulated times on every image."""

    @staticmethod
    def _compute_main(ctx):
        yield ctx.compute_cost(1e6)
        return ctx.now

    def test_default_is_noise_free(self):
        times = run_small(self._compute_main, images=4).results
        assert len(set(times)) == 1


class TestTrace:
    def test_trace_disabled_by_default(self):
        def main(ctx):
            yield from ctx.sync_all()

        assert run_small(main, images=2).trace is None

    def test_trace_records_ops_in_time_order(self):
        def main(ctx):
            a = yield from ctx.allocate("a", (2,))
            yield from ctx.put(a, 2 if ctx.this_image() == 1 else 1, 1.0,
                               index=0)
            yield from ctx.sync_all()

        result = run_small(main, images=2, trace=True)
        trace = result.trace
        assert trace, "trace should have records"
        times = [t for t, *_ in trace]
        assert times == sorted(times)
        ops = {op for _, _, op, _ in trace}
        assert "sync_all" in ops and "put" in ops

    def test_trace_identifies_images(self):
        def main(ctx):
            yield from ctx.sync_all()

        trace = run_small(main, images=3, ipn=3, trace=True).trace
        images = {img for _, img, _, _ in trace}
        assert images == {1, 2, 3}

    @staticmethod
    def _every_logged_statement(ctx):
        """sync_all, put, put_nb, get_nb, event_post, event_wait, lock
        and unlock once each; returns the team uid the records name."""
        other = ctx.this_image() % ctx.num_images() + 1
        x = yield from ctx.allocate("x", (1,))
        ev = yield from ctx.event_var("ev")
        lk = yield from ctx.lock_var("lk")
        yield from ctx.sync_all()
        yield from ctx.put(x, other, 1.0)
        handle = yield from ctx.put_nb(x, other, 2.0)
        yield from ctx.wait_rma(handle)
        handle = yield from ctx.get_nb(x, other)
        yield from ctx.wait_rma(handle)
        yield from ctx.event_post(ev, other)
        yield from ctx.event_wait(ev)
        yield from ctx.lock(lk, 1)
        yield from ctx.unlock(lk, 1)
        return ctx.current_team.shared.uid

    def test_untraced_run_never_reaches_log(self, monkeypatch):
        def refuse(self, op, detail=""):
            raise AssertionError(f"_log({op!r}) reached without a trace")

        monkeypatch.setattr(CafContext, "_log", refuse)
        result = run_small(self._every_logged_statement, images=4)
        assert result.trace is None
        assert len(set(result.results)) == 1

    def test_traced_records_keep_their_details(self):
        result = run_small(self._every_logged_statement, images=4,
                           trace=True)
        uid = result.results[0]
        for image in range(1, 5):
            other = image % 4 + 1
            rows = [(op, detail) for _, img, op, detail in result.trace
                    if img == image]
            # allocate, event_var and lock_var each end in a sync all
            assert rows == [("sync_all", f"team{uid}")] * 4 + [
                ("put", f"x->img{other} 8B"),
                ("put_nb", f"x->img{other} 8B"),
                ("get_nb", f"x<-img{other} 8B"),
                ("event_post", f"ev[{other}]"),
                ("event_wait", "ev until=1"),
                ("lock", "lk[1]"),
                ("unlock", "lk[1]"),
            ]


class TestCustomReduceOp:
    def test_callable_op(self):
        def main(ctx):
            out = yield from ctx.co_reduce(
                ctx.this_image(), op=lambda a, b: a * b
            )
            return out

        results = run_small(main, images=5, ipn=3).results
        assert all(r == 120 for r in results)

    @pytest.mark.parametrize(
        "strategy", ["linear-flat", "binomial-flat", "recursive-doubling",
                     "two-level"])
    def test_callable_op_all_strategies(self, strategy):
        def main(ctx):
            out = yield from ctx.co_reduce(
                {ctx.this_image()}, op=lambda a, b: a | b
            )
            return out

        results = run_small(
            main, images=6, ipn=3, config=UHCAF_2LEVEL.with_(reduce=strategy)
        ).results
        assert all(r == {1, 2, 3, 4, 5, 6} for r in results)
