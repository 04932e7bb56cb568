"""Unit tests for the team runtime structures (TeamShared/TeamView) and
their mailbox/flag machinery — the plumbing every collective rides on."""

import pytest

from repro.machine import Topology, block_placement, paper_cluster
from repro.sim import Engine
from repro.teams.team import INITIAL_TEAM_NUMBER, TeamShared, TeamView


def make_shared(members=None, images=8, ipn=4, **kwargs):
    eng = Engine()
    topo = Topology(paper_cluster(max(-(-images // ipn), 1)),
                    block_placement(images, ipn))
    if members is None:
        members = list(range(images))
    return eng, TeamShared(
        engine=eng, topology=topo, members=members,
        team_number=1, parent=None, **kwargs,
    )


class TestTeamShared:
    def test_index_proc_roundtrip(self):
        _, shared = make_shared(members=[3, 1, 5])
        assert shared.proc_of(1) == 3
        assert shared.proc_of(3) == 5
        assert shared.index_of(1) == 2

    def test_index_out_of_range(self):
        _, shared = make_shared(members=[0, 1])
        with pytest.raises(ValueError, match="out of range"):
            shared.proc_of(3)
        with pytest.raises(ValueError, match="out of range"):
            shared.proc_of(0)

    def test_non_member_rejected(self):
        _, shared = make_shared(members=[0, 1])
        with pytest.raises(ValueError, match="not a member"):
            shared.index_of(7)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_shared(members=[0, 0, 1])

    def test_empty_team_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            make_shared(members=[])

    def test_num_rounds_log2(self):
        assert make_shared(members=list(range(8)))[1].num_rounds == 3
        assert make_shared(members=list(range(9)), images=16, ipn=4)[1].num_rounds == 4
        assert make_shared(members=[0])[1].num_rounds == 0

    def test_ancestor_chain(self):
        eng, root = make_shared()
        topo = Topology(paper_cluster(2), block_placement(8, 4))
        mid = TeamShared(engine=eng, topology=topo, members=[0, 1, 2, 3],
                         team_number=2, parent=root)
        leaf = TeamShared(engine=eng, topology=topo, members=[0, 1],
                          team_number=3, parent=mid)
        assert leaf.ancestors() == [mid, root]
        assert root.ancestors() == []

    def test_uids_unique(self):
        _, a = make_shared()
        _, b = make_shared()
        assert a.uid != b.uid


class TestSyncCells:
    def test_diss_flags_namespaced_by_variant(self):
        _, shared = make_shared()
        a = shared.diss_flag(1, 0, "alg-a")
        b = shared.diss_flag(1, 0, "alg-b")
        assert a is not b
        assert shared.diss_flag(1, 0, "alg-a") is a

    def test_flags_distinct_per_member_and_round(self):
        _, shared = make_shared()
        assert shared.diss_flag(1, 0, "x") is not shared.diss_flag(2, 0, "x")
        assert shared.diss_flag(1, 0, "x") is not shared.diss_flag(1, 1, "x")

    def test_diss_flag_materialized_after_credits_starts_at_credit(self):
        _, shared = make_shared()
        for _ in range(3):
            shared.credit_diss("v")
        assert shared.diss_flag(2, 1, "v").value == 3
        assert shared.diss_flag(2, 1, "w").value == 0  # other variants

    def test_existing_diss_flag_gains_one_per_credit(self):
        _, shared = make_shared()
        cell = shared.diss_flag(1, 0, "v")
        cell.add(1)
        fired = []
        cell.wait_until(lambda v: v >= 3, fired.append)
        shared.credit_diss("v")
        assert cell.value == 2 and not fired
        shared.credit_diss("v")
        assert cell.value == 3 and fired == [3]  # watchers see the credit
        assert shared.diss_flag(1, 0, "v") is cell

    def test_cocounter_and_release_cached(self):
        _, shared = make_shared()
        assert shared.cocounter(1) is shared.cocounter(1)
        assert shared.release_flag(2) is shared.release_flag(2)
        assert shared.cocounter(1) is not shared.release_flag(1)


class TestMailboxes:
    def test_deposit_bumps_cell_and_collect_drains(self):
        _, shared = make_shared()
        cell = shared.mail_cell(1, ("t", 1))
        shared.deposit(1, ("t", 1), "a")
        shared.deposit(1, ("t", 1), "b")
        assert cell.value == 2
        assert shared.collect(1, ("t", 1)) == ["a", "b"]

    def test_collect_frees_storage(self):
        _, shared = make_shared()
        shared.deposit(1, "tag", 1)
        shared.collect(1, "tag")
        assert shared.collect(1, "tag") == []

    def test_mailboxes_isolated_by_member_and_tag(self):
        _, shared = make_shared()
        shared.deposit(1, "t", "for-1")
        shared.deposit(2, "t", "for-2")
        shared.deposit(1, "u", "other-tag")
        assert shared.collect(1, "t") == ["for-1"]
        assert shared.collect(2, "t") == ["for-2"]
        assert shared.collect(1, "u") == ["other-tag"]


class TestTeamView:
    def test_view_binds_index(self):
        _, shared = make_shared(members=[4, 2, 6])
        view = TeamView(shared, proc=2, parent_view=None)
        assert view.index == 2
        assert view.size == 3
        assert view.team_number == 1

    def test_next_seq_per_variant(self):
        _, shared = make_shared()
        view = TeamView(shared, proc=0, parent_view=None)
        assert view.next_seq("a") == 1
        assert view.next_seq("a") == 2
        assert view.next_seq("b") == 1

    def test_next_op_tag_unique_and_ordered(self):
        _, shared = make_shared()
        view = TeamView(shared, proc=0, parent_view=None)
        t1 = view.next_op_tag("red")
        t2 = view.next_op_tag("bc")
        assert t1 != t2
        assert t1[1] < t2[1]

    def test_views_of_one_shared_advance_independently(self):
        """Each image's view has its own counters (kept in lockstep only
        by SPMD discipline, not by sharing)."""
        _, shared = make_shared()
        v0 = TeamView(shared, proc=0, parent_view=None)
        v1 = TeamView(shared, proc=1, parent_view=None)
        v0.next_seq("x")
        assert v1.next_seq("x") == 1

    def test_initial_team_number_constant(self):
        assert INITIAL_TEAM_NUMBER == -1
