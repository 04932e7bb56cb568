"""The run fingerprint and the end-of-run check
(:mod:`repro.verify.fingerprint`)."""

import numpy as np

from repro.collectives.macro import _Gather
from repro.runtime.program import run_spmd
from repro.verify import fingerprint, leftovers


def _mix(ctx):
    me = ctx.this_image()
    yield from ctx.sync_all()
    total = yield from ctx.co_sum(np.arange(3.0) * me)
    got = yield from ctx.co_broadcast(me, source_image=2)
    return total.tolist(), got


def _run(**kwargs):
    return run_spmd(_mix, num_images=8, images_per_node=4, **kwargs)


class TestFingerprint:
    def test_a_repeated_run_gives_the_same_fingerprint(self):
        first, second = fingerprint(_run()), fingerprint(_run())
        assert first == second and first.diff(second) == []
        assert first.events > 0
        assert first.grants == sum(g for _, g, _, _ in first.resources)

    def test_every_field_is_compared(self):
        base = _run()
        want = fingerprint(base)
        base.world.engine.grants += 1
        assert want.diff(fingerprint(base)) == ["grants"]
        base.time = float(np.nextafter(base.time, np.inf))
        base.results[0] = ([0.0, 1.0, 2.0], 2)
        assert want.diff(fingerprint(base)) == ["time", "results", "grants"]

    def test_without_events(self):
        fine = fingerprint(_run(macro_events=False))
        assert fine.without_events().events is None
        assert fine.without_events() == fine.without_events()


class TestLeftovers:
    def test_clean_run_leaves_nothing(self):
        assert leftovers(_run().world) == []

    def test_each_kind_of_leftover_is_listed(self):
        world = _run().world
        shared = world.initial_shared
        shared.mail_cell(3, ("red", 9))
        world.macro._gathers[(shared.uid, "tdlb", 9)] = _Gather("fine")
        world.macro._pending_wakes = 1
        world.engine.note_blocked("image4: waiting on nothing")
        world.resources()[0]._in_use = 1
        found = leftovers(world)
        assert len(found) == 5
        for what in ("still in use", "still blocked", "gather still open",
                     "wake(s) still pending", "mailbox cell left"):
            assert any(what in line for line in found), what
