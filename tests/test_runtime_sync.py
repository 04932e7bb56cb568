"""Tests for sync images, sync memory, events, and atomics."""

import pytest

from repro.sim import ProcessFailure
from tests.conftest import run_small


class TestSyncImages:
    def test_pairwise_rendezvous_orders_writes(self):
        def main(ctx):
            a = yield from ctx.allocate("a", (1,))
            me = ctx.this_image()
            if me == 1:
                yield from ctx.put(a, 2, 42.0)
                yield from ctx.sync_images([2])
            elif me == 2:
                yield from ctx.sync_images([1])
                return float(ctx.local(a)[0])
            return None

        assert run_small(main, images=2).results[1] == 42.0

    def test_star_syncs_with_everyone(self):
        def main(ctx):
            me = ctx.this_image()
            if me == 1:
                yield from ctx.compute(seconds=1e-4)
            yield from ctx.sync_images("*")
            return ctx.now

        result = run_small(main, images=4)
        assert min(result.results) >= 1e-4

    def test_self_in_list_is_noop(self):
        def main(ctx):
            yield from ctx.sync_images([ctx.this_image()])
            return True

        assert all(run_small(main, images=2).results)

    def test_repeated_rendezvous_with_same_peer(self):
        def main(ctx):
            me = ctx.this_image()
            peer = 2 if me == 1 else 1
            for _ in range(5):
                yield from ctx.sync_images([peer])
            return True

        assert all(run_small(main, images=2).results)

    def test_duplicate_peer_rejected(self):
        def main(ctx):
            yield from ctx.sync_images([2, 2])

        with pytest.raises(ProcessFailure, match="duplicate"):
            run_small(main, images=2)

    def test_invalid_string_rejected(self):
        def main(ctx):
            yield from ctx.sync_images("all")

        with pytest.raises(ProcessFailure):
            run_small(main, images=2)

    def test_partial_group_sync(self):
        """Images 1 and 2 rendezvous while 3 and 4 do their own —
        no interference, no global barrier."""

        def main(ctx):
            me = ctx.this_image()
            peer = {1: 2, 2: 1, 3: 4, 4: 3}[me]
            yield from ctx.sync_images([peer])
            return True

        assert all(run_small(main, images=4).results)

    def test_sync_memory_is_cheap_and_local(self):
        def main(ctx):
            t0 = ctx.now
            yield from ctx.sync_memory()
            return ctx.now - t0

        times = run_small(main, images=2).results
        assert all(0 < t < 1e-6 for t in times)


class TestEvents:
    def test_post_then_wait(self):
        def main(ctx):
            ev = yield from ctx.event_var("ev")
            me = ctx.this_image()
            if me == 1:
                yield from ctx.event_post(ev, 2)
            elif me == 2:
                yield from ctx.event_wait(ev)
                return ctx.now
            return None

        assert run_small(main, images=2).results[1] > 0

    def test_wait_until_count(self):
        def main(ctx):
            ev = yield from ctx.event_var("ev")
            me = ctx.this_image()
            if me != 1:
                yield from ctx.event_post(ev, 1)
            else:
                yield from ctx.event_wait(ev, until_count=3)
                return True
            return None

        assert run_small(main, images=4).results[0] is True

    def test_wait_consumes_posts(self):
        def main(ctx):
            ev = yield from ctx.event_var("ev")
            me = ctx.this_image()
            if me == 1:
                yield from ctx.event_post(ev, 2)
                yield from ctx.event_post(ev, 2)
            elif me == 2:
                yield from ctx.event_wait(ev, until_count=2)
                return ctx.event_query(ev)
            return None

        assert run_small(main, images=2).results[1] == 0

    def test_query_sees_pending(self):
        def main(ctx):
            ev = yield from ctx.event_var("ev")
            me = ctx.this_image()
            if me == 1:
                yield from ctx.event_post(ev, 2)
            yield from ctx.sync_all()
            if me == 2:
                return ctx.event_query(ev)
            return None

        assert run_small(main, images=2).results[1] == 1

    def test_bad_until_count_rejected(self):
        def main(ctx):
            ev = yield from ctx.event_var("ev")
            yield from ctx.event_wait(ev, until_count=0)

        with pytest.raises(ProcessFailure):
            run_small(main, images=2)


class TestAtomics:
    def test_atomic_add_accumulates_from_all(self):
        def main(ctx):
            var = yield from ctx.atomic_var("ctr")
            yield from ctx.atomic_add(var, 1, 1)
            yield from ctx.sync_all()
            if ctx.this_image() == 1:
                return ctx.atomic_ref(var)
            return None

        assert run_small(main, images=8, ipn=4).results[0] == 8

    def test_atomic_define_overwrites(self):
        def main(ctx):
            var = yield from ctx.atomic_var("x", initial=5)
            if ctx.this_image() == 2:
                yield from ctx.atomic_define(var, 1, 99)
            yield from ctx.sync_all()
            return ctx.atomic_ref(var)

        result = run_small(main, images=2)
        assert result.results[0] == 99
        assert result.results[1] == 5

    def test_atomic_and_or_xor(self):
        def main(ctx):
            var = yield from ctx.atomic_var("bits", initial=0b1100)
            me = ctx.this_image()
            if me == 2:
                yield from ctx.atomic_op(var, 1, "and", 0b1010)
            yield from ctx.sync_all()
            if me == 2:
                yield from ctx.atomic_op(var, 1, "or", 0b0001)
            yield from ctx.sync_all()
            if me == 2:
                yield from ctx.atomic_op(var, 1, "xor", 0b1111)
            yield from ctx.sync_all()
            return ctx.atomic_ref(var)

        # ((0b1100 & 0b1010) | 0b0001) ^ 0b1111 = (0b1000|1)^0b1111 = 0b0110
        assert run_small(main, images=2).results[0] == 0b0110

    def test_fetch_add_returns_old_value(self):
        def main(ctx):
            var = yield from ctx.atomic_var("ctr", initial=10)
            old = None
            if ctx.this_image() == 2:
                old = yield from ctx.atomic_fetch_add(var, 1, 5)
            yield from ctx.sync_all()
            return old if old is not None else ctx.atomic_ref(var)

        result = run_small(main, images=2)
        assert result.results[1] == 10  # the fetched old value
        assert result.results[0] == 15  # the updated target

    def test_fetch_add_serializes_increments(self):
        """Concurrent fetch_adds each observe a distinct old value."""

        def main(ctx):
            var = yield from ctx.atomic_var("ctr")
            old = yield from ctx.atomic_fetch_add(var, 1, 1)
            yield from ctx.sync_all()
            return (old, ctx.atomic_ref(var) if ctx.this_image() == 1 else None)

        result = run_small(main, images=4)
        olds = sorted(r[0] for r in result.results)
        assert olds == [0, 1, 2, 3]
        assert result.results[0][1] == 4

    def test_cas_succeeds_on_expected(self):
        def main(ctx):
            var = yield from ctx.atomic_var("lock")
            old = None
            if ctx.this_image() == 2:
                old = yield from ctx.atomic_cas(var, 1, expected=0, desired=7)
            yield from ctx.sync_all()
            return old if old is not None else ctx.atomic_ref(var)

        result = run_small(main, images=2)
        assert result.results[1] == 0  # old value at swap time
        assert result.results[0] == 7  # swap applied

    def test_cas_fails_on_mismatch(self):
        def main(ctx):
            var = yield from ctx.atomic_var("lock", initial=3)
            if ctx.this_image() == 2:
                old = yield from ctx.atomic_cas(var, 1, expected=0, desired=7)
                yield from ctx.sync_images([1])
                return old
            yield from ctx.sync_images([2])
            return ctx.atomic_ref(var)

        result = run_small(main, images=2)
        assert result.results[1] == 3  # old value returned
        assert result.results[0] == 3  # swap did not happen

    def test_unknown_atomic_op_rejected(self):
        def main(ctx):
            var = yield from ctx.atomic_var("x")
            yield from ctx.atomic_op(var, 1, "nand", 1)

        with pytest.raises(ProcessFailure, match="unknown atomic"):
            run_small(main, images=2)
