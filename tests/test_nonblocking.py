"""Tests for non-blocking RMA: overlap, completion semantics, snapshots."""

import numpy as np
import pytest

from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL
from tests.conftest import run_small


class TestPutNb:
    def test_data_lands_after_wait(self):
        def main(ctx):
            a = yield from ctx.allocate("a", (4,))
            me = ctx.this_image()
            if me == 1:
                h = yield from ctx.put_nb(a, 2, np.arange(4.0))
                yield from ctx.wait_rma(h)
                yield from ctx.sync_images([2])
            else:
                yield from ctx.sync_images([1])
            return ctx.local(a).copy()

        result = run_small(main, images=2)
        assert (result.results[1] == np.arange(4.0)).all()

    def test_returns_before_blocking_put_would(self):
        """Posting must cost less time than the full blocking put."""

        def main(ctx):
            a = yield from ctx.allocate("big", (100_000,))
            me = ctx.this_image()
            if me != 1:
                yield from ctx.sync_all()
                return None
            t0 = ctx.now
            h = yield from ctx.put_nb(a, 2, np.zeros(100_000))
            post = ctx.now - t0
            yield from ctx.wait_rma(h)
            full = ctx.now - t0
            yield from ctx.sync_all()
            return (post, full)

        post, full = run_small(main, images=2, config=UHCAF_1LEVEL).results[0]
        assert post < full / 5

    def test_overlap_communication_with_compute(self):
        """nb-put + compute + wait finishes sooner than put then compute."""

        def overlapped(ctx):
            a = yield from ctx.allocate("a", (100_000,))
            if ctx.this_image() == 1:
                h = yield from ctx.put_nb(a, 2, np.zeros(100_000))
                yield from ctx.compute(seconds=100e-6)
                yield from ctx.wait_rma(h)
            yield from ctx.sync_all()
            return ctx.now

        def sequential(ctx):
            a = yield from ctx.allocate("a", (100_000,))
            if ctx.this_image() == 1:
                yield from ctx.put(a, 2, np.zeros(100_000))
                yield from ctx.compute(seconds=100e-6)
            yield from ctx.sync_all()
            return ctx.now

        t_overlap = max(run_small(overlapped, images=2).results)
        t_seq = max(run_small(sequential, images=2).results)
        assert t_overlap < t_seq

    def test_source_buffer_snapshot(self):
        def main(ctx):
            a = yield from ctx.allocate("a", (2,))
            if ctx.this_image() == 1:
                buf = np.array([7.0, 8.0])
                h = yield from ctx.put_nb(a, 2, buf)
                buf[:] = -1  # mutate before delivery
                yield from ctx.wait_rma(h)
            yield from ctx.sync_all()
            return ctx.local(a).copy()

        assert (run_small(main, images=2).results[1] == [7.0, 8.0]).all()

    def test_multiple_outstanding_puts(self):
        def main(ctx):
            a = yield from ctx.allocate("a", (8,))
            if ctx.this_image() == 1:
                handles = []
                for i in range(8):
                    h = yield from ctx.put_nb(a, 2, float(i), index=i)
                    handles.append(h)
                for h in handles:
                    yield from ctx.wait_rma(h)
            yield from ctx.sync_all()
            return ctx.local(a).copy()

        assert (run_small(main, images=2).results[1] == np.arange(8.0)).all()


class TestGetNb:
    def test_fetches_remote_value(self):
        def main(ctx):
            a = yield from ctx.allocate("a", (3,))
            ctx.local(a)[:] = ctx.this_image() * 5
            yield from ctx.sync_all()
            h = yield from ctx.get_nb(a, 2)
            value = yield from ctx.wait_rma(h)
            return value.copy()

        result = run_small(main, images=2)
        assert (result.results[0] == 10).all()

    def test_self_get_immediate(self):
        def main(ctx):
            a = yield from ctx.allocate("a", (2,))
            ctx.local(a)[:] = 3
            h = yield from ctx.get_nb(a, ctx.this_image())
            value = yield from ctx.wait_rma(h)
            return (value == 3).all()

        result = run_small(main, images=2)
        assert all(result.results)

    def test_get_with_index(self):
        def main(ctx):
            a = yield from ctx.allocate("a", (4,))
            ctx.local(a)[:] = ctx.this_image() * 100
            yield from ctx.sync_all()
            h = yield from ctx.get_nb(a, 2, index=3)
            value = yield from ctx.wait_rma(h)
            return float(value)

        result = run_small(main, images=2)
        assert result.results[0] == 200.0

    @pytest.mark.parametrize("config", [UHCAF_2LEVEL, UHCAF_1LEVEL])
    def test_nb_and_blocking_get_agree(self, config):
        def main(ctx):
            a = yield from ctx.allocate("a", (4,))
            ctx.local(a)[:] = ctx.this_image()
            yield from ctx.sync_all()
            blocking = yield from ctx.get(a, 2)
            h = yield from ctx.get_nb(a, 2)
            nonblocking = yield from ctx.wait_rma(h)
            return (blocking == nonblocking).all()

        result = run_small(main, images=4, config=config)
        assert all(result.results)
