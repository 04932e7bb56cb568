"""Integration tests: whole programs mixing the runtime's features, run
on every stack configuration — the cross-module safety net."""

import numpy as np
import pytest

from repro.runtime.config import NAMED_CONFIGS, UHCAF_2LEVEL
from tests.conftest import run_small

ALL_CONFIGS = list(NAMED_CONFIGS.values())


class TestEveryStack:
    """The same nontrivial program must produce identical *results* on
    every runtime configuration — only simulated time may differ."""

    @staticmethod
    def program(ctx):
        me = ctx.this_image()
        n = ctx.num_images()
        a = yield from ctx.allocate("a", (4,))
        ctx.local(a)[:] = me
        yield from ctx.sync_all()
        yield from ctx.put(a, me % n + 1, float(me), index=0)
        yield from ctx.sync_all()
        received = float(ctx.local(a)[0])
        total = yield from ctx.co_sum(me)
        big = yield from ctx.co_max(np.array([me, -me]))
        team = yield from ctx.form_team(1 if me <= n // 2 else 2)
        yield from ctx.change_team(team)
        team_sum = yield from ctx.co_sum(ctx.this_image())
        gathered = yield from ctx.co_allgather(ctx.this_image() * 2)
        yield from ctx.end_team()
        bcast = yield from ctx.co_broadcast(
            "hello" if me == 2 else None, source_image=2)
        return (received, int(total), big.tolist(), int(team_sum),
                gathered, bcast)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_results_identical_across_stacks(self, config):
        result = run_small(self.program, images=8, ipn=4, config=config)
        reference = run_small(self.program, images=8, ipn=4,
                              config=UHCAF_2LEVEL)
        assert result.results == reference.results

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_deterministic_rerun(self, config):
        a = run_small(self.program, images=8, ipn=4, config=config)
        b = run_small(self.program, images=8, ipn=4, config=config)
        assert a.results == b.results
        assert a.time == b.time
        assert a.traffic == b.traffic

    def test_hierarchy_aware_stack_is_fastest_caf(self):
        times = {
            cfg.name: run_small(self.program, images=16, ipn=8,
                                config=cfg).time
            for cfg in ALL_CONFIGS
        }
        # fastest of every GASNet-based CAF stack...
        caf = ("uhcaf-2level", "uhcaf-1level", "caf2.0-openuh",
               "caf2.0-gfortran", "gasnet-ib-dissemination")
        assert times["uhcaf-2level"] == min(times[name] for name in caf)
        # ...and an order of magnitude over the unaware GASNet stacks
        assert times["uhcaf-1level"] > 10 * times["uhcaf-2level"]
        # the MPI-conduit stack may edge it on put-heavy work (MPI's thin
        # two-sided path), but only marginally — the paper's
        # "competitive with MPI" claim
        assert times["uhcaf-2level"] < 1.5 * times["openmpi-gcc"]


class TestNestedTeams:
    def test_three_levels_of_teams_with_collectives(self):
        def main(ctx):
            me = ctx.this_image()
            sums = []
            l1 = yield from ctx.form_team(1 if me <= 8 else 2)
            yield from ctx.change_team(l1)
            sums.append((yield from ctx.co_sum(1)))
            l2 = yield from ctx.form_team(1 if ctx.this_image() <= 4 else 2)
            yield from ctx.change_team(l2)
            sums.append((yield from ctx.co_sum(1)))
            l3 = yield from ctx.form_team(1 if ctx.this_image() <= 2 else 2)
            yield from ctx.change_team(l3)
            sums.append((yield from ctx.co_sum(1)))
            ids = (ctx.team_id(), ctx.get_team("parent").team_number)
            yield from ctx.end_team()
            yield from ctx.end_team()
            yield from ctx.end_team()
            sums.append((yield from ctx.co_sum(1)))
            return (tuple(sums), ids)

        result = run_small(main, images=16, ipn=8)
        assert all(r[0] == (8, 4, 2, 16) for r in result.results)

    def test_sibling_teams_progress_independently(self):
        """One team barriers many times while the other computes — no
        cross-team interference, and no deadlock."""

        def main(ctx):
            me = ctx.this_image()
            team = yield from ctx.form_team(1 if me % 2 else 2)
            yield from ctx.change_team(team)
            if ctx.team_id() == 1:
                for _ in range(20):
                    yield from ctx.sync_all()
            else:
                yield from ctx.compute(seconds=1e-4)
                yield from ctx.sync_all()
            yield from ctx.end_team()
            return True

        assert all(run_small(main, images=8, ipn=4).results)

    def test_team_scoped_coarray_and_collectives(self):
        def main(ctx):
            me = ctx.this_image()
            team = yield from ctx.form_team(1 if me <= 2 else 2)
            yield from ctx.change_team(team)
            local = yield from ctx.allocate("scratch", (2,))
            ctx.local(local)[:] = ctx.this_image() * 10
            yield from ctx.sync_all()
            # put to teammate using team-relative index
            peer = ctx.this_image() % ctx.num_images() + 1
            yield from ctx.put(local, peer, float(ctx.this_image()), index=1)
            yield from ctx.sync_all()
            value = float(ctx.local(local)[1])
            yield from ctx.end_team()
            return value

        result = run_small(main, images=4, ipn=2)
        assert result.results == [2.0, 1.0, 2.0, 1.0]


class TestMixedSynchronization:
    def test_events_locks_atomics_interplay(self):
        """A tiny job queue: image 1 posts work items guarded by a lock,
        workers claim via fetch_add and signal completion via events."""

        def main(ctx):
            me = ctx.this_image()
            n = ctx.num_images()
            next_item = yield from ctx.atomic_var("next")
            done = yield from ctx.event_var("done")
            claimed = 0
            while True:
                item = yield from ctx.atomic_fetch_add(next_item, 1, 1)
                if item >= 10:
                    break
                claimed += 1
                yield from ctx.compute(seconds=1e-6)
            yield from ctx.event_post(done, 1)
            if me == 1:
                yield from ctx.event_wait(done, until_count=n)
            yield from ctx.sync_all()
            total = yield from ctx.co_sum(claimed)
            return (claimed, int(total))

        result = run_small(main, images=4, ipn=2)
        assert all(r[1] == 10 for r in result.results)

    def test_halo_exchange_pattern(self):
        """sync images-based nearest-neighbour exchange converges to the
        analytic fixed point."""

        def main(ctx):
            me = ctx.this_image()
            n = ctx.num_images()
            cell = yield from ctx.allocate("cell", (3,))  # [left, mine, right]
            ctx.local(cell)[1] = float(me)
            yield from ctx.sync_all()
            for _ in range(50):
                mine = float(ctx.local(cell)[1])
                if me > 1:
                    yield from ctx.put(cell, me - 1, mine, index=2)
                if me < n:
                    yield from ctx.put(cell, me + 1, mine, index=0)
                peers = [i for i in (me - 1, me + 1) if 1 <= i <= n]
                yield from ctx.sync_images(peers)
                left = float(ctx.local(cell)[0]) if me > 1 else mine
                right = float(ctx.local(cell)[2]) if me < n else mine
                ctx.local(cell)[1] = (left + mine + right) / 3.0
                yield from ctx.sync_images(peers)
            return float(ctx.local(cell)[1])

        result = run_small(main, images=6, ipn=3)
        mean = sum(range(1, 7)) / 6
        assert all(abs(v - mean) < 0.2 for v in result.results)

    def test_producer_consumer_events_no_barrier(self):
        def main(ctx):
            me = ctx.this_image()
            box = yield from ctx.allocate("box", (1,))
            ready = yield from ctx.event_var("ready")
            taken = yield from ctx.event_var("taken")
            if me == 1:
                for i in range(5):
                    if i > 0:
                        yield from ctx.event_wait(taken)
                    yield from ctx.put(box, 2, float(i), index=0)
                    yield from ctx.event_post(ready, 2)
                return None
            if me == 2:
                got = []
                for i in range(5):
                    yield from ctx.event_wait(ready)
                    got.append(float(ctx.local(box)[0]))
                    yield from ctx.event_post(taken, 1)
                return got
            return None

        result = run_small(main, images=2)
        assert result.results[1] == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestScale:
    def test_full_paper_cluster_mixed_workload(self):
        """352 images on 44 nodes: teams + collectives + RMA, correct and
        tractable (tens of thousands of events)."""

        def main(ctx):
            me = ctx.this_image()
            total = yield from ctx.co_sum(1)
            team = yield from ctx.form_team((me - 1) // 8 + 1)
            yield from ctx.change_team(team)
            team_sum = yield from ctx.co_sum(1)
            yield from ctx.sync_all()
            yield from ctx.end_team()
            return (int(total), int(team_sum))

        result = run_small(main, images=352, ipn=8)
        assert all(r == (352, 8) for r in result.results)

    def test_many_iterations_no_state_leak(self):
        """Sequence counters, mailboxes, and sync flags must stay
        consistent over hundreds of collective calls."""

        def main(ctx):
            acc = 0
            for i in range(100):
                acc += (yield from ctx.co_sum(1))
                yield from ctx.sync_all()
            return acc

        result = run_small(main, images=6, ipn=3)
        assert all(r == 600 for r in result.results)
