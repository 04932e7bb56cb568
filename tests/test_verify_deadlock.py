"""Deadlock wait-for analysis: pinned report content.

These tests pin the rendered diagnosis for the canonical SPMD bug — one
image skips a collective — so report regressions (lost context, wrong
expected-notifier inference) show up as text diffs.  The team uid in
cell names is a process-global counter and is normalized out.
"""

import re
import textwrap

import pytest

from repro.runtime.config import UHCAF_1LEVEL, UHCAF_2LEVEL
from repro.sim import BlockedInfo
from repro.sim.errors import DeadlockError
from repro.verify import analyze_deadlock, explain_deadlock
from tests.conftest import run_small


def _normalize(text):
    return re.sub(r"\bt\d+\.", "tN.", text)


def _deadlock_from(main, **kwargs):
    with pytest.raises(DeadlockError) as excinfo:
        run_small(main, **kwargs)
    return excinfo.value


def _skip_last(skipped):
    def main(ctx):
        if ctx.this_image() != skipped:
            yield from ctx.sync_all()
        return None
    return main


class TestPinnedReports:
    def test_linear_barrier_skip_report(self):
        # 3 images, one node, linear barrier, image3 skips sync_all:
        # the leader holds an incomplete arrival count, image2 spins on
        # its release flag, and the report names image3 as the root
        # cause — plus the leader/slave mutual wait as a potential cycle.
        err = _deadlock_from(
            _skip_last(3), images=3, ipn=3,
            config=UHCAF_2LEVEL.with_(barrier="linear"),
        )
        expected = textwrap.dedent("""\
            deadlock wait-for analysis: 2 image(s) blocked, 1 image(s) exited without notifying a waiter
            blocked:
              image1 waits on cell 'tN.linear-arrive[1][0]' [diss, team#-1 size 3, owner image1, node 0, leader image1] value=1; expected notifiers: image2, image3
              image2 waits on cell 'tN.linear-release[2][0]' [diss, team#-1 size 3, owner image2, node 0, leader image1] value=0; expected notifiers: image1
            exited before notifying: image3
            potential wait-for cycle: image1 -> image2 -> image1""")
        assert _normalize(explain_deadlock(err)) == expected

    def test_linear_barrier_skip_report_on_two_nodes(self):
        # 8 images, 4 per node, the E6 counts config: image6 skips
        # sync_all.  The leader (image1) counts every other member in
        # and releases each of them itself, so the report names image6,
        # not the leader's node mates, and the only cycle is the
        # leader/member mutual wait.
        err = _deadlock_from(
            _skip_last(6), images=8, ipn=4,
            config=UHCAF_1LEVEL.with_(barrier="linear", macro_events=False),
        )
        expected = textwrap.dedent("""\
            deadlock wait-for analysis: 7 image(s) blocked, 1 image(s) exited without notifying a waiter
            blocked:
              image1 waits on cell 'tN.linear-arrive[1][0]' [diss, team#-1 size 8, owner image1, node 0, leader image1] value=6; expected notifiers: image2, image3, image4, image5, image6, image7, image8
              image5 waits on cell 'tN.linear-release[5][0]' [diss, team#-1 size 8, owner image5, node 1, leader image5] value=0; expected notifiers: image1
              image7 waits on cell 'tN.linear-release[7][0]' [diss, team#-1 size 8, owner image7, node 1, leader image5] value=0; expected notifiers: image1
              image8 waits on cell 'tN.linear-release[8][0]' [diss, team#-1 size 8, owner image8, node 1, leader image5] value=0; expected notifiers: image1
              image2 waits on cell 'tN.linear-release[2][0]' [diss, team#-1 size 8, owner image2, node 0, leader image1] value=0; expected notifiers: image1
              image3 waits on cell 'tN.linear-release[3][0]' [diss, team#-1 size 8, owner image3, node 0, leader image1] value=0; expected notifiers: image1
              image4 waits on cell 'tN.linear-release[4][0]' [diss, team#-1 size 8, owner image4, node 0, leader image1] value=0; expected notifiers: image1
            exited before notifying: image6
            potential wait-for cycle: image1 -> image2 -> image3 -> image4 -> image5 -> image7 -> image8 -> image1""")
        assert _normalize(explain_deadlock(err)) == expected

    def test_tdlb_barrier_skip_report(self):
        # 4 images on 2 nodes, TDLB: image4 skips, so node 1's leader
        # never completes its local count, and node 0's leader blocks in
        # the leader dissemination expecting that leader.
        err = _deadlock_from(_skip_last(4), images=4, ipn=2,
                             config=UHCAF_2LEVEL)
        expected = textwrap.dedent("""\
            deadlock wait-for analysis: 3 image(s) blocked, 1 image(s) exited without notifying a waiter
            blocked:
              image3 waits on cell 'tN.cocounter[3]' [cocounter, team#-1 size 4, owner image3, node 1, leader image3] value=0; expected notifiers: image4
              image2 waits on cell 'tN.release[2]' [release, team#-1 size 4, owner image2, node 0, leader image1] value=0; expected notifiers: image1
              image1 waits on cell 'tN.tdlb-leaders[1][0]' [diss, team#-1 size 4, owner image1, node 0, leader image1] value=0; expected notifiers: image3
            exited before notifying: image4""")
        assert _normalize(explain_deadlock(err)) == expected

    def test_sync_images_skip_report(self):
        def main(ctx):
            if ctx.this_image() == 1:
                yield from ctx.sync_images([2])
            return None
            yield  # pragma: no cover

        err = _deadlock_from(main, images=2, ipn=2)
        expected = textwrap.dedent("""\
            deadlock wait-for analysis: 1 image(s) blocked, 1 image(s) exited without notifying a waiter
            blocked:
              image1 waits on cell 'syncimg[1->0]' [pairwise sync image2->image1] value=0; expected notifiers: image2
            exited before notifying: image2""")
        assert _normalize(explain_deadlock(err)) == expected


class TestAnalysisStructure:
    def test_structured_details_carry_cells(self):
        err = _deadlock_from(
            _skip_last(3), images=3, ipn=3,
            config=UHCAF_2LEVEL.with_(barrier="linear"),
        )
        assert all(isinstance(d, BlockedInfo) for d in err.details)
        assert {d.kind for d in err.details} == {"cell"}
        analysis = analyze_deadlock(err)
        assert analysis.blocked == [1, 2]
        assert analysis.missing == [3]
        assert analysis.cycles == [[1, 2]]

    def test_linear_barrier_blames_the_skipper_on_the_aware_runtime(self):
        # As the pinned 8x4 report, on the hierarchy-aware config: the
        # linear barrier's cells are its own, so no node roles leak
        # into the inference.
        err = _deadlock_from(
            _skip_last(6), images=8, ipn=4,
            config=UHCAF_2LEVEL.with_(barrier="linear", macro_events=False),
        )
        analysis = analyze_deadlock(err)
        assert analysis.missing == [6]
        assert analysis.cycles == [[1, 2, 3, 4, 5, 7, 8]]

    def test_dissemination_partner_inference(self):
        # Flat dissemination, 4 images: in round r the waiter expects
        # rank-2^r; with image4 missing every blocked image's expectation
        # must point at a real partner, and image4 is the only missing one.
        err = _deadlock_from(
            _skip_last(4), images=4, ipn=4,
            config=UHCAF_2LEVEL.with_(barrier="dissemination"),
        )
        analysis = analyze_deadlock(err)
        assert analysis.missing == [4]
        for waiter in analysis.waiters:
            assert waiter.expects is not None
            assert len(waiter.expects) == 1

    def test_true_cycle_without_missing_images(self):
        # Crossed sync images around a ring: each image's first
        # rendezvous partner has not notified it yet (it notified the
        # next image instead) — a genuine 3-cycle with nobody missing.
        def main(ctx):
            me = ctx.this_image()
            first = me % 3 + 1
            second = (me + 1) % 3 + 1
            yield from ctx.sync_images([first])
            yield from ctx.sync_images([second])
            return None

        err = _deadlock_from(main, images=3, ipn=3)
        analysis = analyze_deadlock(err)
        assert analysis.missing == []
        assert analysis.cycles == [[1, 2, 3]]
        assert ("potential wait-for cycle: "
                "image1 -> image2 -> image3 -> image1"
                in analysis.render())
