"""F2018 event variables: post/wait/query semantics, team scoping, the
leader-mediated cross-node path, and schedule-independence of the wake
order under the fuzz driver."""

import pytest

from repro.faults import Stat
from repro.verify import HBMonitor, fuzz_schedules
from repro.verify.fuzz import canonicalize

from tests.conftest import run_small

pytestmark = pytest.mark.image_control


# ----------------------------------------------------------------------
# Core semantics
# ----------------------------------------------------------------------
class TestEventSemantics:
    def test_post_then_wait_never_blocks(self):
        """A wait preceded (in program order at the owner) by a matching
        post is satisfied immediately — for posts from any image."""
        def main(ctx):
            me = ctx.this_image()
            n = ctx.num_images()
            ev = yield from ctx.event_var("selfpost")
            # post to myself, then wait: must not block
            yield from ctx.event_post(ev, me)
            yield from ctx.event_wait(ev)
            # ring: everyone posts right, then waits for the left post
            yield from ctx.event_post(ev, me % n + 1)
            yield from ctx.event_wait(ev)
            return ctx.event_query(ev)

        result = run_small(main, images=8, ipn=4)
        assert result.results == [0] * 8

    def test_until_count_consumes_exactly_threshold(self):
        """``event wait(ev, until_count=c)`` consumes all ``c`` posts;
        a lower threshold leaves the surplus pending (F2015 8.5.2)."""
        def main(ctx):
            me = ctx.this_image()
            ev = yield from ctx.event_var("counted")
            if me == 1:
                for _ in range(3):
                    yield from ctx.event_post(ev, 2)
            yield from ctx.sync_all()
            if me == 2:
                q_before = ctx.event_query(ev)
                yield from ctx.event_wait(ev, until_count=2)
                q_mid = ctx.event_query(ev)
                yield from ctx.event_wait(ev, until_count=1)
                return (q_before, q_mid, ctx.event_query(ev))
            return None

        result = run_small(main, images=4)
        assert result.results[1] == (3, 1, 0)

    def test_partial_posts_stay_pending_until_threshold_met(self):
        """An owner blocked on ``until_count=k`` wakes only once the
        k-th post lands, regardless of how many posters contribute."""
        def main(ctx):
            me = ctx.this_image()
            n = ctx.num_images()
            ev = yield from ctx.event_var("fanin")
            if me == 1:
                yield from ctx.event_wait(ev, until_count=n - 1)
                return ctx.event_query(ev)
            yield from ctx.event_post(ev, 1)
            return None

        result = run_small(main, images=6, ipn=3)
        assert result.results[0] == 0

    def test_wait_rejects_nonpositive_until_count(self):
        def main(ctx):
            ev = yield from ctx.event_var("bad")
            yield from ctx.event_wait(ev, until_count=0)

        with pytest.raises(Exception, match="until_count"):
            run_small(main, images=2)

    def test_cross_node_fanin_lands_every_post(self):
        """Posters spread over four nodes all reach one owner: the
        leader-mediated relay must deliver exactly one bump per post."""
        def main(ctx):
            me = ctx.this_image()
            n = ctx.num_images()
            ev = yield from ctx.event_var("xnode")
            if me != 1:
                yield from ctx.event_post(ev, 1)
            else:
                yield from ctx.event_wait(ev, until_count=n - 1)
            yield from ctx.sync_all()
            return ctx.event_query(ev)

        result = run_small(main, images=8, ipn=2)
        assert result.results == [0] * 8

    def test_thousands_of_satisfied_waits_in_a_row(self):
        """2,000 posts land before the owner waits, so each of its 2,000
        waits already holds when issued; the owner must step through
        them without nesting a frame per wait (past the default
        recursion limit of 1,000), with or without a monitor."""
        posts = 2_000

        def main(ctx):
            me = ctx.this_image()
            ev = yield from ctx.event_var("backlog")
            if me == 2:
                for _ in range(posts):
                    yield from ctx.event_post(ev, 1)
            yield from ctx.sync_all()
            if me == 1:
                for _ in range(posts):
                    yield from ctx.event_wait(ev)
            return (ctx.event_query(ev), ctx.now)

        plain = run_small(main, images=2, ipn=2)
        monitor = HBMonitor()
        monitored = run_small(main, images=2, ipn=2, monitor=monitor)
        assert [q for q, _ in plain.results] == [0, 0]
        assert monitored.results == plain.results
        assert monitored.time == plain.time > 0
        assert monitor.races == []


# ----------------------------------------------------------------------
# Team scoping
# ----------------------------------------------------------------------
class TestCrossTeamIsolation:
    def test_same_name_in_sibling_teams_is_independent(self):
        """Posts on team A's ``ev`` never satisfy waits on team B's
        ``ev`` even though the names collide."""
        def main(ctx):
            me = ctx.this_image()
            team = yield from ctx.form_team(1 if me <= 4 else 2)
            yield from ctx.change_team(team)
            ev = yield from ctx.event_var("shared_name")
            tme = ctx.this_image()
            tn = ctx.num_images()
            # team 1 posts twice around its ring, team 2 once: if the
            # namespaces leaked, the counts could not both settle at 0.
            posts = 2 if ctx.team_id() == 1 else 1
            for _ in range(posts):
                yield from ctx.event_post(ev, tme % tn + 1)
            yield from ctx.event_wait(ev, until_count=posts)
            leftover = ctx.event_query(ev)
            yield from ctx.end_team()
            return (ctx.team_id(), leftover)

        result = run_small(main, images=8, ipn=4)
        assert all(leftover == 0 for _tid, leftover in result.results)

    def test_subteam_event_distinct_from_parent_event(self):
        """``event_var('iso')`` on the initial team and on a sub-team
        attach different coarrays: parent posts are invisible inside."""
        def main(ctx):
            me = ctx.this_image()
            outer = yield from ctx.event_var("iso")
            yield from ctx.event_post(outer, me)  # 1 pending on outer
            team = yield from ctx.form_team(1 if me <= 2 else 2)
            yield from ctx.change_team(team)
            inner = yield from ctx.event_var("iso")
            pending_inner = ctx.event_query(inner)
            yield from ctx.end_team()
            yield from ctx.event_wait(outer)
            return (pending_inner, ctx.event_query(outer))

        result = run_small(main, images=4)
        assert result.results == [(0, 0)] * 4

    def test_post_addresses_team_relative_index(self):
        """``event post(ev[i])`` resolves ``i`` in the variable's own
        team, not globally: reversed sub-teams still pair up."""
        def main(ctx):
            me = ctx.this_image()
            n = ctx.num_images()
            team = yield from ctx.form_team(1, new_index=n - me + 1)
            yield from ctx.change_team(team)
            ev = yield from ctx.event_var("rev")
            tme = ctx.this_image()
            yield from ctx.event_post(ev, tme % n + 1)
            yield from ctx.event_wait(ev)
            yield from ctx.end_team()
            return ctx.event_query(ev)

        result = run_small(main, images=4)
        assert result.results == [0] * 4


# ----------------------------------------------------------------------
# Fuzzed schedules: wake order determinism
# ----------------------------------------------------------------------
def _chain_main(ctx):
    """Event chain 1 → 2 → … → n: image k wakes only after image k−1
    posted, so the wake order is fixed by the dependence structure no
    matter how the scheduler interleaves the runnable images."""
    me = ctx.this_image()
    n = ctx.num_images()
    ev = yield from ctx.event_var("chain")
    if me > 1:
        yield from ctx.event_wait(ev)
    woke_at = ctx.now
    if me < n:
        yield from ctx.event_post(ev, me + 1)
    return woke_at


def _wake_order(result):
    """Map an SpmdResult to the images ordered by wake time."""
    times = result.results
    return [img for _t, img in sorted(
        (t, img) for img, t in enumerate(times, start=1))]


class TestEventFuzz:
    def test_chain_wake_order_is_schedule_independent(self):
        report = fuzz_schedules(
            _chain_main, seeds=[3, 5, 7], num_images=8, images_per_node=4,
            extract=_wake_order,
        )
        assert report.ok
        expected = canonicalize(list(range(1, 9)))
        assert report.baseline.results == expected
        for outcome in report.outcomes:
            assert outcome.results == expected

    def test_same_seed_reproduces_the_whole_run(self):
        """Duplicate seeds in the sweep land byte-identical outcomes:
        same wake order *and* same simulated finishing time."""
        report = fuzz_schedules(
            _chain_main, seeds=[7, 7], num_images=8, images_per_node=4,
            extract=_wake_order,
        )
        assert report.ok
        a, b = report.outcomes
        assert a.results == b.results
        assert a.time == b.time


# ----------------------------------------------------------------------
# Failure integration (regression: ISSUE 6 satellite 4)
# ----------------------------------------------------------------------
class TestEventStatPlumbing:
    def test_event_var_barrier_accepts_stat(self):
        def main(ctx):
            st = Stat()
            yield from ctx.event_var("guarded", stat=st)
            return st.code

        result = run_small(main, images=4)
        assert result.results == [0] * 4
