"""Broadcast tests: every strategy delivers the source's payload to every
member, on any team shape, from any source."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL
from repro.sim import ProcessFailure
from tests.conftest import run_small

ALL_BCASTS = ["binomial-flat", "two-level"]


def bcast_config(name, base=UHCAF_2LEVEL):
    return base.with_(broadcast=name)


def run_bcast(strategy, images, ipn, source, payload_of):
    def main(ctx):
        me = ctx.this_image()
        value = payload_of(me) if me == source else None
        out = yield from ctx.co_broadcast(value, source_image=source)
        return out

    return run_small(
        main, images=images, ipn=ipn, config=bcast_config(strategy)
    ).results


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ALL_BCASTS)
    def test_everyone_gets_source_scalar(self, strategy):
        results = run_bcast(strategy, 6, 3, source=2, payload_of=lambda m: m * 100)
        assert results == [200] * 6

    @pytest.mark.parametrize("strategy", ALL_BCASTS)
    def test_everyone_gets_source_array(self, strategy):
        results = run_bcast(
            strategy, 7, 4, source=5,
            payload_of=lambda m: np.arange(8) + m,
        )
        for r in results:
            assert (r == np.arange(8) + 5).all()

    @pytest.mark.parametrize("strategy", ALL_BCASTS)
    @pytest.mark.parametrize("source", [1, 2, 8])
    def test_any_source(self, strategy, source):
        results = run_bcast(strategy, 8, 4, source=source,
                            payload_of=lambda m: m)
        assert results == [source] * 8

    @pytest.mark.parametrize("strategy", ALL_BCASTS)
    def test_source_on_non_leader_core(self, strategy):
        """Two-level must handle a source that is not its node's leader."""
        results = run_bcast(strategy, 16, 8, source=6, payload_of=lambda m: m)
        assert results == [6] * 16

    @pytest.mark.parametrize("strategy", ALL_BCASTS)
    def test_single_image(self, strategy):
        results = run_bcast(strategy, 1, 1, source=1, payload_of=lambda m: "x")
        assert results == ["x"]

    @pytest.mark.parametrize("strategy", ALL_BCASTS)
    def test_payload_is_snapshot(self, strategy):
        """Source mutating its buffer after the call must not alter what
        receivers observe."""

        def main(ctx):
            me = ctx.this_image()
            buf = np.full(4, float(me))
            out = yield from ctx.co_broadcast(buf, source_image=1)
            if me == 1:
                buf[:] = -1
            yield from ctx.sync_all()
            return out.copy()

        results = run_small(main, images=4, config=bcast_config(strategy)).results
        for r in results:
            assert (r == 1.0).all()

    @pytest.mark.parametrize("strategy", ALL_BCASTS)
    def test_repeated_broadcasts_in_order(self, strategy):
        def main(ctx):
            outs = []
            for k in range(3):
                out = yield from ctx.co_broadcast(
                    (k + 1) * 10 if ctx.this_image() == 1 else None,
                    source_image=1,
                )
                outs.append(out)
            return outs

        results = run_small(main, images=6, ipn=3,
                            config=bcast_config(strategy)).results
        assert all(r == [10, 20, 30] for r in results)

    @pytest.mark.parametrize("strategy", ALL_BCASTS)
    def test_on_subteam_with_team_argument(self, strategy):
        def main(ctx):
            me = ctx.this_image()
            team = yield from ctx.form_team(1 if me <= 2 else 2)
            out = yield from ctx.co_broadcast(
                me if ctx.this_image(team) == 1 else None,
                source_image=1, team=team,
            )
            return out

        results = run_small(main, images=4, config=bcast_config(strategy)).results
        assert results == [1, 1, 3, 3]

    def test_invalid_source_rejected(self):
        def main(ctx):
            yield from ctx.co_broadcast(1, source_image=99)

        with pytest.raises(ProcessFailure, match="source_image"):
            run_small(main, images=2)

    @given(
        strategy=st.sampled_from(ALL_BCASTS),
        n=st.integers(min_value=1, max_value=12),
        ipn=st.integers(min_value=1, max_value=8),
        source_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_shape_any_source(self, strategy, n, ipn, source_seed):
        source = source_seed % n + 1
        results = run_bcast(strategy, n, ipn, source=source,
                            payload_of=lambda m: m * 7)
        assert results == [source * 7] * n


class TestShape:
    def _bench(self, config, images=16, ipn=8, nelems=1):
        def main(ctx):
            v = np.zeros(nelems)
            yield from ctx.co_broadcast(v, source_image=1)
            t0 = ctx.now
            for _ in range(4):
                yield from ctx.co_broadcast(v, source_image=1)
            return ctx.now - t0

        return max(run_small(main, images=images, ipn=ipn, config=config).results)

    def test_two_level_beats_flat_binomial_with_colocated_images(self):
        t2 = self._bench(UHCAF_2LEVEL)
        t1 = self._bench(UHCAF_1LEVEL)
        assert t1 > 1.5 * t2

    def test_flat_parity_on_one_image_per_node(self):
        """With nothing intra-node to exploit, two-level ≈ flat binomial
        (identical tree over leaders)."""
        t2 = self._bench(UHCAF_2LEVEL, images=8, ipn=1)
        t1 = self._bench(UHCAF_1LEVEL, images=8, ipn=1)
        assert t2 == pytest.approx(t1, rel=0.05)
