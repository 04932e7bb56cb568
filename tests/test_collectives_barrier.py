"""Barrier tests: semantic correctness (no image escapes early), message
count analytics (n·log n vs 2(n−1)), variant behaviour, and TDLB's
flat-hierarchy degeneration."""

import math

import pytest

from repro.collectives import NOTIFY_NBYTES
from repro.runtime.config import (
    GASNET_IB_DISSEMINATION,
    UHCAF_1LEVEL,
    UHCAF_2LEVEL,
)
from tests.conftest import run_small

ALL_BARRIERS = [
    "dissemination",
    "dissemination-mcs",
    "linear",
    "tdlb",
]


def barrier_config(name, base=UHCAF_2LEVEL):
    return base.with_(barrier=name)


class TestSemantics:
    @pytest.mark.parametrize("name", ALL_BARRIERS)
    def test_no_image_leaves_before_last_arrives(self, name):
        """Image 1 arrives late; every exit time must be >= its arrival."""

        def main(ctx):
            if ctx.this_image() == 1:
                yield from ctx.compute(seconds=1e-3)
            arrive = ctx.now
            yield from ctx.sync_all()
            return (arrive, ctx.now)

        result = run_small(main, images=8, ipn=4, config=barrier_config(name))
        last_arrival = max(a for a, _ in result.results)
        assert all(exit_ >= last_arrival for _, exit_ in result.results)

    @pytest.mark.parametrize("name", ALL_BARRIERS)
    def test_repeated_barriers_stay_correct(self, name):
        """The sync_flags carry must hold across many invocations."""

        def main(ctx):
            exits = []
            for i in range(5):
                if ctx.this_image() == (i % ctx.num_images()) + 1:
                    yield from ctx.compute(seconds=1e-4)
                yield from ctx.sync_all()
                exits.append(ctx.now)
            return exits

        result = run_small(main, images=6, ipn=3, config=barrier_config(name))
        # After each round, all images agree the barrier completed after
        # the straggler's arrival; exit times are non-decreasing rounds.
        for img in result.results:
            assert img == sorted(img)

    @pytest.mark.parametrize("name", ALL_BARRIERS)
    def test_barrier_on_subteam_does_not_touch_outsiders(self, name):
        def main(ctx):
            me = ctx.this_image()
            team = yield from ctx.form_team(1 if me <= 2 else 2)
            yield from ctx.change_team(team)
            if ctx.team_id() == 1:
                yield from ctx.sync_all()
                yield from ctx.sync_all()
            else:
                yield from ctx.sync_all()
            yield from ctx.end_team()
            return True

        assert all(
            run_small(main, images=4, config=barrier_config(name)).results
        )

    def test_single_image_barrier_is_noop(self):
        def main(ctx):
            t0 = ctx.now
            yield from ctx.sync_all()
            return ctx.now - t0

        result = run_small(main, images=1, ipn=1)
        assert result.results[0] == 0.0

    def test_mixed_variants_on_same_team_do_not_alias(self):
        """Running different barrier algorithms on one team must keep
        their flag namespaces separate (variant-keyed sync_flags)."""
        from repro.collectives import (
            barrier_dissemination,
            barrier_linear,
            barrier_tdlb,
        )

        def main(ctx):
            view = ctx.current_team
            for _ in range(2):
                yield from barrier_dissemination(ctx, view)
                yield from barrier_tdlb(ctx, view)
                yield from barrier_linear(ctx, view)
            return True

        assert all(run_small(main, images=6, ipn=3).results)


class TestMessageCounts:
    def _traffic(self, name, images, ipn, config=UHCAF_1LEVEL):
        """Whole-run traffic of a program that executes exactly one
        barrier — counting at the end avoids racing in-flight releases."""

        def main(ctx):
            yield from ctx.sync_all()

        result = run_small(
            main, images=images, ipn=ipn, config=config.with_(barrier=name)
        )
        return result.traffic

    def test_dissemination_sends_n_log_n(self):
        n = 8
        t = self._traffic("dissemination", images=n, ipn=4)
        expected = n * math.ceil(math.log2(n))
        assert t.total_messages == expected

    def test_dissemination_non_power_of_two(self):
        n = 6
        t = self._traffic("dissemination", images=n, ipn=3)
        assert t.total_messages == n * math.ceil(math.log2(n))

    def test_linear_sends_2n_minus_2(self):
        n = 8
        t = self._traffic("linear", images=n, ipn=4)
        assert t.total_messages == 2 * (n - 1)

    def test_tdlb_message_count(self):
        """TDLB: 2(ipn−1) per node intra + leaders·⌈log2 nodes⌉ inter."""
        images, ipn = 16, 8
        nodes = 2
        t = self._traffic("tdlb", images=images, ipn=ipn, config=UHCAF_2LEVEL)
        intra_expected = nodes * 2 * (ipn - 1)
        inter_expected = nodes * math.ceil(math.log2(nodes))
        assert t.intra_messages == intra_expected
        assert t.inter_messages == inter_expected

    def test_tdlb_inter_node_traffic_beats_dissemination(self):
        images, ipn = 16, 8
        t_diss = self._traffic("dissemination", images=images, ipn=ipn)
        t_tdlb = self._traffic("tdlb", images=images, ipn=ipn, config=UHCAF_2LEVEL)
        assert t_tdlb.inter_messages < t_diss.inter_messages

    def test_notification_payload_is_one_word(self):
        n = 4
        t = self._traffic("linear", images=n, ipn=2)
        assert t.inter_bytes + t.intra_bytes == t.total_messages * NOTIFY_NBYTES


class TestShape:
    def test_tdlb_equals_dissemination_on_flat_hierarchy(self):
        """Paper §V-A claim (1): with one image per node TDLB degenerates
        to the leader dissemination — identical time."""

        def bench(config):
            def main(ctx):
                yield from ctx.sync_all()
                t0 = ctx.now
                for _ in range(5):
                    yield from ctx.sync_all()
                return ctx.now - t0

            return max(run_small(main, images=8, ipn=1, config=config).results)

        t_tdlb = bench(UHCAF_2LEVEL)
        t_diss = bench(UHCAF_1LEVEL)
        assert t_tdlb == pytest.approx(t_diss, rel=1e-9)

    def test_tdlb_beats_dissemination_with_colocated_images(self):
        def bench(config):
            def main(ctx):
                yield from ctx.sync_all()
                t0 = ctx.now
                for _ in range(5):
                    yield from ctx.sync_all()
                return ctx.now - t0

            return max(run_small(main, images=16, ipn=8, config=config).results)

        assert bench(UHCAF_1LEVEL) > 5 * bench(UHCAF_2LEVEL)

    def test_two_wait_variant_costs_more_than_one_wait(self):
        """The two-array variant's per-round bookkeeping costs more than
        the one-wait carry."""
        def bench(name):
            def main(ctx):
                yield from ctx.sync_all()
                t0 = ctx.now
                for _ in range(5):
                    yield from ctx.sync_all()
                return ctx.now - t0

            cfg = GASNET_IB_DISSEMINATION.with_(barrier=name)
            return max(run_small(main, images=8, ipn=4, config=cfg).results)

        one = bench("dissemination")
        mcs = bench("dissemination-mcs")
        assert one < mcs

    def test_linear_beats_dissemination_on_one_node(self):
        """§IV-A's analysis: inside one shared-memory node the linear
        barrier's 2(n−1) serialized notifications beat dissemination's
        n·log n."""

        def bench(name):
            def main(ctx):
                yield from ctx.sync_all()
                t0 = ctx.now
                for _ in range(5):
                    yield from ctx.sync_all()
                return ctx.now - t0

            cfg = UHCAF_1LEVEL.with_(barrier=name)
            return max(run_small(main, images=8, ipn=8, config=cfg).results)

        assert bench("linear") < bench("dissemination")

    def test_dissemination_beats_linear_across_nodes(self):
        """...and the reverse across nodes (the log n vs 2(n−1) steps)."""

        def bench(name):
            def main(ctx):
                yield from ctx.sync_all()
                t0 = ctx.now
                for _ in range(5):
                    yield from ctx.sync_all()
                return ctx.now - t0

            cfg = GASNET_IB_DISSEMINATION.with_(barrier=name)
            return max(run_small(main, images=32, ipn=1, config=cfg).results)

        assert bench("dissemination") < bench("linear")
