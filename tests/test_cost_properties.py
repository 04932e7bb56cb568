"""Property-based tests of the cost model: whatever the profile and
payload, transfer costs must obey the physical invariants the analysis
relies on (monotonicity, path ordering, profile ordering)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import ConduitProfile
from repro.machine import build_machine, paper_cluster
from repro.runtime.conduit import Conduit
from repro.sim import Engine, Process


def transfer_time(profile, src, dst, nbytes, aware=False, path="auto"):
    eng = Engine()
    machine = build_machine(eng, paper_cluster(2), 16, images_per_node=8)
    conduit = Conduit(machine, profile, hierarchy_aware=aware)
    done = {}

    def proc():
        yield from conduit.transfer(
            src, dst, nbytes,
            on_delivered=lambda: done.__setitem__("t", eng.now), path=path)

    Process(eng, proc())
    eng.run()
    return done["t"]


@st.composite
def profiles(draw):
    remote = draw(st.floats(min_value=1e-7, max_value=1e-5))
    local = draw(st.floats(min_value=1e-7, max_value=1e-5))
    penalty = draw(st.floats(min_value=0, max_value=5e-6))
    serialize = draw(st.booleans())
    bw_factor = draw(st.floats(min_value=0.1, max_value=1.0))
    return ConduitProfile(
        name="hyp", remote_overhead=remote, local_overhead=local,
        loopback_penalty=penalty, serialize_overhead=serialize,
        loopback_bw_factor=bw_factor,
    )


class TestCostInvariants:
    @given(profile=profiles(),
           small=st.integers(min_value=0, max_value=10_000),
           extra=st.integers(min_value=1, max_value=1_000_000))
    @settings(max_examples=40, deadline=None)
    def test_delivery_monotone_in_payload_remote(self, profile, small, extra):
        t_small = transfer_time(profile, 0, 8, small)
        t_big = transfer_time(profile, 0, 8, small + extra)
        assert t_big > t_small

    @given(profile=profiles(),
           small=st.integers(min_value=0, max_value=10_000),
           extra=st.integers(min_value=1, max_value=1_000_000))
    @settings(max_examples=40, deadline=None)
    def test_delivery_monotone_in_payload_local(self, profile, small, extra):
        t_small = transfer_time(profile, 0, 1, small)
        t_big = transfer_time(profile, 0, 1, small + extra)
        assert t_big > t_small

    @given(profile=profiles(), nbytes=st.integers(min_value=0, max_value=65536))
    @settings(max_examples=40, deadline=None)
    def test_direct_never_slower_than_loopback(self, profile, nbytes):
        t_direct = transfer_time(profile, 0, 1, nbytes, aware=True)
        t_loop = transfer_time(profile, 0, 1, nbytes, aware=False)
        assert t_direct <= t_loop + 1e-15

    @given(nbytes=st.integers(min_value=0, max_value=65536),
           overhead_lo=st.floats(min_value=1e-7, max_value=2e-6),
           overhead_delta=st.floats(min_value=1e-7, max_value=8e-6))
    @settings(max_examples=40, deadline=None)
    def test_cheaper_profile_is_faster_remote(self, nbytes, overhead_lo,
                                              overhead_delta):
        cheap = ConduitProfile("cheap", overhead_lo, overhead_lo)
        pricey = ConduitProfile("pricey", overhead_lo + overhead_delta,
                                overhead_lo + overhead_delta)
        assert (transfer_time(cheap, 0, 8, nbytes)
                < transfer_time(pricey, 0, 8, nbytes))

    @given(profile=profiles())
    @settings(max_examples=30, deadline=None)
    def test_zero_byte_transfer_still_costs_time(self, profile):
        assert transfer_time(profile, 0, 8, 0) > 0
        assert transfer_time(profile, 0, 1, 0) > 0

    @given(profile=profiles(), nbytes=st.integers(min_value=0, max_value=4096))
    @settings(max_examples=30, deadline=None)
    def test_same_pair_deterministic(self, profile, nbytes):
        a = transfer_time(profile, 0, 8, nbytes)
        b = transfer_time(profile, 0, 8, nbytes)
        assert a == b
