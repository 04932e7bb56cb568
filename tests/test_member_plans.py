"""Member plans: each member's collective steps, resolved once per team.

The plans replace per-step derivations (partner index, route, flag cell,
tag suffix) with a walk over steps built the first time an algorithm
runs fine-grained.  These tests re-derive every step the way the
algorithms used to, per call, and check the plans against it on the
paper's shapes, ragged and non-power-of-two leader sets, the
alternative leader strategies, HPL's row/column sub-teams and a
survivor team.  A differential recorded before plans existed pins the
simulated outcome bit for bit.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from repro.collectives.base import binomial_peers
from repro.faults import FaultSchedule, ImageFailure
from repro.hpl.grid import BlockCyclicGrid, grid_shape
from repro.runtime.config import UHCAF_2LEVEL
from repro.runtime.program import run_spmd
from repro.sim.errors import DeadlockError
from repro.verify import explain_deadlock, fingerprint


def _mixed(ctx):
    """Barriers, a scalar and an array co_sum, a maxloc co_reduce,
    compute, and broadcasts from sources 1, 2, n/2+1 and n (some of
    them not node leaders)."""
    n = ctx.num_images()
    me = ctx.this_image()
    out = []
    yield from ctx.sync_all()
    out.append((yield from ctx.co_sum(me * 3)))
    out.append((yield from ctx.co_reduce((float((me * 7) % 11), me),
                                         op="maxloc")))
    yield from ctx.compute(flops=500.0 * (1 + me % 3))
    for src in sorted({1, 2, n // 2 + 1, n}):
        out.append((yield from ctx.co_broadcast(me * 10 + src,
                                                source_image=src)))
    out.append((yield from ctx.co_sum(np.arange(3, dtype=np.int64) * me)).tolist())
    yield from ctx.sync_all()
    return out


def _mixed_views(ctx):
    yield from _mixed(ctx)
    return ctx.current_team


# ----------------------------------------------------------------------
# Reference derivations: the per-call formulas the plans replace
# ----------------------------------------------------------------------
def _route(world, view, target, path):
    return world.conduit.route(view.proc, view.shared.proc_of(target), path)


def _bumps(partial_, cell):
    return partial_.func.__self__ is cell and partial_.args == (1,)


def _reference_rd(participants, index):
    """``(sends, waits)`` of the MPICH fold/exchange/unfold walk."""
    n = len(participants)
    rank = participants.index(index)
    pow2 = 1 << (n.bit_length() - 1)
    if pow2 > n:
        pow2 >>= 1
    rem = n - pow2
    sends, waits = [], []
    newrank = -1
    if rank < 2 * rem:
        if rank % 2 == 1:
            sends.append((participants[rank - 1], ("fold", rank)))
        else:
            waits.append(("fold", rank + 1))
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank >= 0:
        mask = 1
        while mask < pow2:
            partner_new = newrank ^ mask
            partner_rank = (partner_new * 2 if partner_new < rem
                            else partner_new + rem)
            sends.append((participants[partner_rank], ("rd", mask, partner_new)))
            waits.append(("rd", mask, newrank))
            mask <<= 1
    if rank < 2 * rem:
        if rank % 2 == 0:
            sends.append((participants[rank + 1], ("unfold", rank + 1)))
        else:
            waits.append(("unfold", rank))
    return sends, waits


def check_plan(world, view):
    """Assert every built part of ``view.plan`` equals the per-call
    derivation; returns the names of the parts that were built."""
    plan = view.plan
    shared = view.shared
    h = shared.hierarchy
    me = view.index
    built = set()
    node = plan.node
    if node is not None:
        built.add("node")
        leader = h.leader_of[me]
        assert node.leader == leader
        if leader != me:
            assert node.to_leader is _route(world, view, leader, "direct")
            assert node.slaves == [] and node.to_slaves == []
        else:
            assert node.to_leader is None
            assert node.slaves == h.slaves_of(me)
            assert node.to_slaves == [_route(world, view, s, "direct")
                                      for s in h.slaves_of(me)]
    tdlb = plan.tdlb
    if tdlb is not None:
        built.add("tdlb")
        leader = h.leader_of[me]
        if leader != me:
            assert tdlb.to_leader is _route(world, view, leader, "direct")
            assert _bumps(tdlb.arrive, shared.cocounter(leader))
            assert tdlb.released is shared.release_flag(me)
            assert tdlb.arrived is None and tdlb.releases == []
        else:
            slaves = h.slaves_of(me)
            assert tdlb.arrived is (shared.cocounter(me) if slaves else None)
            assert [r for r, _ in tdlb.releases] == [
                _route(world, view, s, "direct") for s in slaves]
            assert all(_bumps(bump, shared.release_flag(s))
                       for (_, bump), s in zip(tdlb.releases, slaves))
    for (_, variant), (participants, rounds) in plan.diss.items():
        built.add(f"diss:{variant}")
        n = len(participants)
        rank = participants.index(me)
        assert len(rounds) == (n - 1).bit_length()
        for r, (route, bump, my_flag) in enumerate(rounds):
            send_to = participants[(rank + (1 << r)) % n]
            assert route is _route(world, view, send_to, "auto")
            assert _bumps(bump, shared.diss_flag(send_to, r, variant))
            assert my_flag is shared.diss_flag(me, r, variant)
    for rd in plan.rd.values():
        built.add("rd")
        sends, waits = _reference_rd(rd.participants, me)
        steps = ([rd.fold_to] if rd.fold_to else []) + [
            (route, target, suffix) for route, target, suffix, _ in rd.rounds
        ] + ([rd.unfold_to] if rd.unfold_to else [])
        assert [(t, s) for _, t, s in steps] == sends
        assert all(route is _route(world, view, t, "auto")
                   for route, t, _ in steps)
        got_waits = ([rd.fold_from] if rd.fold_from else []) + [
            w for *_, w in rd.rounds
        ] + ([rd.unfold_from] if rd.unfold_from else [])
        assert got_waits == waits
    for source_leader, (has_parent, children) in plan.bcast.items():
        built.add("bcast")
        leaders = h.leaders
        k = len(leaders)
        root = h.leader_rank[source_leader]
        parent, kids = binomial_peers((h.leader_rank[me] - root) % k, k)
        assert has_parent == (parent is not None)
        targets = [leaders[(c + root) % k] for c in kids]
        assert [t for _, t in children] == targets
        assert [r for r, _ in children] == [
            _route(world, view, t, "auto") for t in targets]
    return built


def _run_and_check(n, ipn, config=UHCAF_2LEVEL):
    res = run_spmd(_mixed_views, num_images=n, images_per_node=ipn,
                   config=config, macro_events=False)
    views = res.results
    built = [check_plan(res.world, v) for v in views]
    return res, views, built


class TestPlansMatchDerivation:
    @pytest.mark.parametrize("n, ipn", [(352, 8), (13, 5), (24, 3), (40, 1)],
                             ids=["352(44)", "13(3)", "24(8)", "40(40)"])
    def test_default_shapes(self, n, ipn):
        res, views, built = _run_and_check(n, ipn)
        h = views[0].shared.hierarchy
        for view, parts in zip(views, built):
            assert {"node", "tdlb"} <= parts
            if h.leader_of[view.index] == view.index and len(h.leaders) > 1:
                assert {"diss:tdlb-leaders", "rd", "bcast"} <= parts

    def test_non_power_of_two_leaders_fold_and_unfold(self):
        _, views, _ = _run_and_check(13, 5)  # 3 leaders: 1 extra pair
        h = views[0].shared.hierarchy
        assert len(h.leaders) == 3
        rds = [next(iter(views[L - 1].plan.rd.values())) for L in h.leaders]
        assert rds[0].fold_from and rds[0].unfold_to
        assert rds[1].fold_to and rds[1].unfold_from and not rds[1].rounds
        assert not (rds[2].fold_to or rds[2].fold_from)

    @pytest.mark.parametrize("strategy", ["rotating", "highest"])
    def test_leader_strategies(self, strategy):
        def main(ctx):
            # re-form twice so the rotating election moves off "lowest"
            for _ in range(2):
                team = yield from ctx.form_team(1)
            yield from ctx.change_team(team)
            yield from _mixed(ctx)
            return ctx.current_team

        cfg = UHCAF_2LEVEL.with_(leader_strategy=strategy)
        res = run_spmd(main, num_images=24, images_per_node=3, config=cfg,
                       macro_events=False)
        views = res.results
        h = views[0].shared.hierarchy
        assert h.leaders != [1 + 3 * k for k in range(8)]  # not "lowest"
        for view in views:
            parts = check_plan(res.world, view)
            assert {"node", "tdlb"} <= parts
            if h.leader_of[view.index] == view.index:
                assert {"diss:tdlb-leaders", "rd", "bcast"} <= parts

    def test_hpl_row_and_column_sub_teams(self):
        def main(ctx):
            p, q = grid_shape(ctx.num_images())
            grid = BlockCyclicGrid(n=64, nb=8, p=p, q=q,
                                   index=ctx.this_image())
            row = yield from ctx.form_team(grid.row_team_number)
            col = yield from ctx.form_team(grid.col_team_number)
            me = ctx.this_image()
            yield from ctx.co_reduce((float(me % 5), me), op="maxloc",
                                     team=col)
            yield from ctx.co_broadcast(me, source_image=1, team=row)
            yield from ctx.co_broadcast(me, source_image=col.size, team=col)
            return row, col

        res = run_spmd(main, num_images=16, images_per_node=4)
        for row, col in res.results:
            assert row.shared is not col.shared
            assert "rd" in check_plan(res.world, col) or col.size == 1
            check_plan(res.world, row)
            assert row.plan is not col.plan

    def test_survivor_team_builds_its_own_plan(self):
        def main(ctx):
            from repro.faults import Stat

            yield from ctx.co_sum(1)
            parent = ctx.current_team
            yield from ctx.compute(seconds=50e-6)
            stat = Stat()
            yield from ctx.sync_all(stat=stat)
            survivors = yield from ctx.survivor_team()
            yield from ctx.change_team(survivors)
            yield from ctx.co_sum(ctx.this_image())
            yield from ctx.co_broadcast(1, source_image=1)
            return parent, survivors

        # image 1, node 0's leader, fail-stops: node 0 re-elects
        res = run_spmd(main, num_images=16, images_per_node=4,
                       faults=FaultSchedule(failures=(ImageFailure(1, 20e-6),)))
        for out in res.results[1:]:
            parent, survivors = out
            assert survivors.shared.parent is parent.shared
            assert survivors.plan is not parent.plan
            check_plan(res.world, parent)
            parts = check_plan(res.world, survivors)
            assert {"node", "tdlb"} <= parts
            if survivors.shared.hierarchy.leader_of[survivors.index] == survivors.index:
                assert survivors.plan.node.leader == survivors.index
        new_h = res.results[1][1].shared.hierarchy
        assert new_h.leaders[0] == 1  # old image 2, now index 1, leads node 0


class TestLazyPlans:
    def test_fully_collapsed_flat_run_builds_no_plan(self):
        def main(ctx):
            yield from ctx.sync_all()
            yield from ctx.co_sum(ctx.this_image())
            yield from ctx.sync_all()
            return ctx.current_team

        res = run_spmd(main, num_images=32, images_per_node=1)
        macro = res.world.macro
        assert macro.replays == 3 and macro.fine_pins == 0
        assert all(view.plan is None for view in res.results)

    def test_fine_grained_run_builds_plans(self):
        res, views, _ = _run_and_check(32, 1)
        assert all(view.plan is not None for view in views)


#: (images, images per node, macro-events) → (end time, results digest,
#: traffic, conduit.counts, grants, peak_queue, engine events), recorded
#: with the per-message resolution that member plans replaced.  With
#: several images per node macro-events stay off, so the macro-on rows
#: there are the fine-grained rows.
RECORDED = [
    ((352, 8, True), ('0.00025051575108225096', 'd552cbca5de1b8b3', (1252, 14432, 4312, 49280), (('direct', 4312), ('loopback', 0), ('remote', 1252)), 6816, 6, 18044)),
    ((352, 8, False), ('0.00025051575108225096', 'd552cbca5de1b8b3', (1252, 14432, 4312, 49280), (('direct', 4312), ('loopback', 0), ('remote', 1252)), 6816, 6, 18044)),
    ((96, 4, True), ('0.00020470200865800876', '80870004301aedc9', (572, 6496, 1008, 11520), (('direct', 1008), ('loopback', 0), ('remote', 572)), 2152, 2, 5220)),
    ((96, 4, False), ('0.00020470200865800876', '80870004301aedc9', (572, 6496, 1008, 11520), (('direct', 1008), ('loopback', 0), ('remote', 572)), 2152, 2, 5220)),
    ((13, 5, True), ('8.922426406926417e-05', '9633398d32d324d9', (32, 352, 140, 1600), (('direct', 140), ('loopback', 0), ('remote', 32)), 204, 3, 560)),
    ((13, 5, False), ('8.922426406926417e-05', '9633398d32d324d9', (32, 352, 140, 1600), (('direct', 140), ('loopback', 0), ('remote', 32)), 204, 3, 560)),
    ((24, 3, True), ('0.00012267886796536807', '01f786d684a3048d', (148, 1760, 224, 2560), (('direct', 224), ('loopback', 0), ('remote', 148)), 520, 1, 1260)),
    ((24, 3, False), ('0.00012267886796536807', '01f786d684a3048d', (148, 1760, 224, 2560), (('direct', 224), ('loopback', 0), ('remote', 148)), 520, 1, 1260)),
    ((40, 1, True), ('0.00023441418831168814', '89649932d87d663a', (1164, 13536, 0, 0), (('direct', 0), ('loopback', 0), ('remote', 1164)), 2328, 0, 2665)),
    ((40, 1, False), ('0.00023441418831168814', '89649932d87d663a', (1164, 13536, 0, 0), (('direct', 0), ('loopback', 0), ('remote', 1164)), 2328, 0, 4076)),
]


def _projection(res):
    """The fields of the run fingerprint that ``RECORDED`` pins (its
    results digest is the repr digest the rows were recorded with)."""
    fp = fingerprint(res)
    return (repr(fp.time),
            hashlib.sha256(repr(res.results).encode()).hexdigest()[:16],
            fp.traffic, fp.conduit,
            sum(grants for _, grants, _, _ in fp.resources),
            max(peak for _, _, peak, _ in fp.resources),
            fp.events)


@pytest.mark.parametrize("case, expected", RECORDED,
                         ids=[f"{n}-{ipn}-{'macro' if m else 'fine'}"
                              for (n, ipn, m), _ in RECORDED])
def test_recorded_differential(case, expected):
    n, ipn, macro = case
    res = run_spmd(_mixed, num_images=n, images_per_node=ipn,
                   macro_events=macro)
    assert _projection(res) == expected


def test_mailbox_deadlock_report_names_the_mail_cell():
    def main(ctx):
        if ctx.this_image() != 2:
            yield from ctx.co_sum(ctx.this_image())
        return None

    with pytest.raises(DeadlockError) as excinfo:
        run_spmd(main, num_images=4, images_per_node=2, macro_events=False)
    report = re.sub(r"\bt\d+\.", "tN.", explain_deadlock(excinfo.value))
    assert "image1 waits on cell \"tN.mail[1]('red-2l', 1)\"" in report
