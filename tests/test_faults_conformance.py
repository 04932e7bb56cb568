"""Fault-schedule slice of the conformance matrix (the full sweep runs
via ``python -m repro.verify``: 792 cells, 528 of them under a fault
schedule, pass at the time of writing).  Here: the schedule catalog,
the matrix builder's coverage and filters, the paper's two-level
algorithms on the canonical 2x4 hierarchy under every schedule, the
probe's rounds, and collectives aborted by a failure leaving nothing
behind."""

import pytest

from repro.faults import FaultSchedule, ImageFailure, Stat
from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL
from repro.runtime.program import CafContext, run_spmd
from repro.teams import team as team_module
from repro.verify import (
    SCHEDULES,
    build_matrix,
    leftovers,
    make_schedule,
    run_case,
)
from repro.verify import conformance
from repro.verify.conformance import KINDS, PAYLOADS, SHAPES


class TestScheduleCatalog:
    def test_named_schedules_cover_the_issue_minimum(self):
        assert set(SCHEDULES) == {
            "none", "slave-fails", "leader-fails", "message-drop"}
        assert make_schedule("none").is_null
        assert make_schedule("slave-fails").failures[0].image == 2
        assert make_schedule("leader-fails").failures[0].image == 1
        assert make_schedule("message-drop").has_link_faults

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown fault schedule"):
            make_schedule("meteor-strike")


class TestMatrixBuilder:
    def test_full_matrix_covers_every_kind_and_schedule(self):
        cases = build_matrix()
        cells = {s: {(c.kind, c.alg, c.shape) for c in cases
                     if c.schedule == s} for s in SCHEDULES}
        registered = {(kind, alg, shape) for kind, table in KINDS.items()
                      for alg in table for shape in SHAPES}
        assert all(swept == registered for swept in cells.values())
        # every payload fault-free, one per kind under faults
        for kind, payloads in PAYLOADS.items():
            for schedule in SCHEDULES:
                swept = {c.payload for c in cases
                         if c.kind == kind and c.schedule == schedule}
                assert swept == (set(payloads) if schedule == "none"
                                 else {payloads[-1]})

    def test_quick_set(self):
        """Fault-free: every algorithm on every fast shape.  Under each
        fault schedule: the algorithm of each kind that the paper's two
        UHCAF lines run (every implementation of an image-control
        kind)."""
        quick = {(c.kind, c.alg, c.shape, c.schedule)
                 for c in build_matrix(quick=True)}
        fast = [s for s in SHAPES if SHAPES[s].quick]
        for kind, table in KINDS.items():
            smoke = ({getattr(UHCAF_1LEVEL, kind), getattr(UHCAF_2LEVEL, kind)}
                     if hasattr(UHCAF_2LEVEL, kind) else set(table))
            for alg in table:
                for shape in fast:
                    assert (kind, alg, shape, "none") in quick
                    for schedule in SCHEDULES[1:]:
                        assert ((kind, alg, shape, schedule) in quick) == (
                            alg in smoke)
        assert {c.shape for c in build_matrix(quick=True)} == set(fast)

    def test_filters_compose(self):
        cases = build_matrix(kinds=["barrier"], shapes=["2x4"],
                             schedules=["leader-fails"])
        assert cases and all(
            c.kind == "barrier" and c.shape == "2x4"
            and c.schedule == "leader-fails" for c in cases)


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("kind,alg", [
    ("barrier", "tdlb"),
    ("reduce", "two-level"),
    ("broadcast", "two-level"),
    ("allgather", "two-level"),
    ("alltoall", "two-level"),
    ("event", "leader-mediated"),
    ("lock", "cas-wait"),
    ("critical", "lock-based"),
])
def test_paper_algorithms_survive_faults_on_2x4(kind, alg, schedule):
    cases = build_matrix(quick=True, kinds=[kind], algs=[alg],
                         shapes=["2x4"], schedules=[schedule])
    assert len(cases) == 1
    result = run_case(cases[0], seeds=2)
    assert result.ok, result.detail


def test_probe_rounds(monkeypatch):
    """Besides each round's reference: both runs of a message-drop cell
    complete three rounds (a later round must not pass on an earlier,
    delayed round's data), event waits alternate ``until_count=`` and
    the default count, and lock acquisitions run back to back (a
    releaser re-requests the lock while others are queued)."""
    calls, runs = [], []
    for name in ("sync_all", "event_wait", "lock"):
        def spy(ctx, *args, _real=getattr(CafContext, name), _name=name,
                **kwargs):
            calls.append((ctx.this_image(), _name, kwargs.get("until_count")))
            return _real(ctx, *args, **kwargs)
        monkeypatch.setattr(CafContext, name, spy)
    real = conformance.run_spmd
    monkeypatch.setattr(conformance, "run_spmd", lambda main, **kw: (
        runs.append(real(main, **kw)) or runs[-1]))
    for kind in ("reduce", "event", "lock"):
        assert run_case(build_matrix(kinds=[kind], shapes=["2x4"],
                                     schedules=["message-drop"])[0]).ok
    assert [[len(out) for out in res.results] for res in runs] == [
        [3] * 8] * 6
    mine = [(name, until) for img, name, until in calls if img == 1]
    assert [until for name, until in mine if name == "event_wait"] == [
        conformance.EVENT_POSTS, None, conformance.EVENT_POSTS] * 2
    locks = [name for name, _ in mine if name != "event_wait"]
    assert ["lock", "lock"] in [locks[i:i + 2] for i in range(len(locks))]


# ----------------------------------------------------------------------
def _co_sums(ctx):
    st = Stat()
    for _ in range(5):
        yield from ctx.co_sum(ctx.this_image(), stat=st)
        if not st.ok:
            return tuple(st.failed_indices)
    return None


class TestAbortedCollectivesLeaveNothing:
    """A collective that a failure aborts can never be collected, on any
    survivor: the failure closes every mailbox of the victim's teams,
    and a deposit still in flight lands nowhere."""

    def test_stat_aborted_co_sums(self, monkeypatch):
        late = []
        deposit = team_module.TeamShared.deposit

        def spy(self, index, tag, value):
            late.append(isinstance(self._mail_cells, team_module._Discard))
            deposit(self, index, tag, value)

        monkeypatch.setattr(team_module.TeamShared, "deposit", spy)
        for t in range(3, 21):
            faults = FaultSchedule(failures=(ImageFailure(5, t * 1e-6),))
            res = run_spmd(_co_sums, num_images=16, images_per_node=4,
                           faults=faults)
            assert leftovers(res.world) == [], t
            assert all(out == (5,) for i, out in enumerate(res.results)
                       if i != 4), t
        # deposits landed after the failure on some of these runs
        assert any(late)

    def test_window_and_mailbox_reductions(self):
        for kind in ("reduce", "broadcast"):
            for case in build_matrix(kinds=[kind], algs=["two-level"],
                                     shapes=["1node", "2x4"],
                                     schedules=["slave-fails",
                                                "leader-fails"]):
                result = run_case(case)
                assert result.ok, f"{case.label}:\n{result.detail}"
