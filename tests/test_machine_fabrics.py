"""Unit tests for the interconnect, shared-memory fabric, and Machine facade.

Messages reach the fabrics only through conduit routes, so these tests
drive a :class:`~repro.runtime.conduit.Conduit` whose profile charges no
software cost: a ``remote`` transfer then takes exactly the sender NIC's
injection time, and a ``loopback`` store exactly the home memory
controller's occupancy, which are the fabrics' own formulas."""

from dataclasses import replace

import pytest

from repro.calibration import ConduitProfile
from repro.machine import TrafficSnapshot, build_machine, paper_cluster
from repro.runtime.conduit import Conduit
from repro.sim import Engine, Process

#: a stack with no software cost: no overheads, no loopback poll
BARE = ConduitProfile(name="bare", remote_overhead=0.0, local_overhead=0.0)


def make(images=8, ipn=4, nodes=4, profile=BARE):
    eng = Engine()
    m = build_machine(eng, paper_cluster(nodes), images, images_per_node=ipn)
    return eng, m, Conduit(m, profile)


def drive(eng, gen):
    """Run one transport generator as a process; return completion time."""
    Process(eng, gen)
    eng.run()
    return eng.now


class TestInterconnect:
    def test_same_node_send_stays_off_the_nic(self):
        # a same-node pair asked for the remote path takes the loopback
        # route: the store goes to the node's memory system, not a NIC
        eng, m, c = make()
        drive(eng, c.transfer(0, 1, 8, path="remote"))
        assert c.counts["loopback"] == 1
        assert c.traffic() == TrafficSnapshot(0, 0, 1, 8)
        assert m.interconnect.nic(0).total_grants == 0
        assert m.shared_memory.bus(0).total_grants == 1

    def test_sender_blocks_for_injection_only(self):
        eng, m, c = make()
        net = m.spec.network
        t = drive(eng, c.transfer(0, 4, 0, path="remote"))
        assert t == pytest.approx(net.inject_time(0))

    def test_delivery_after_wire_time(self):
        eng, m, c = make()
        net = m.spec.network
        arrival = []
        Process(eng, c.transfer(0, 4, 100, path="remote",
                                on_delivered=lambda: arrival.append(eng.now)))
        eng.run()
        assert arrival[0] == pytest.approx(net.inject_time(100) + net.wire_time(100))

    def test_nic_serializes_concurrent_sends(self):
        eng, m, c = make()
        net = m.spec.network
        done = []

        def proc():
            yield from c.transfer(0, 4, 0, path="remote")
            done.append(eng.now)

        for _ in range(3):
            Process(eng, proc())
        eng.run()
        gaps = [round(t / net.inject_time(0)) for t in done]
        assert gaps == [1, 2, 3]

    def test_distinct_nodes_inject_in_parallel(self):
        eng, m, c = make(images=16)
        net = m.spec.network
        done = []

        def proc(node):
            yield from c.transfer(4 * node, 4 * ((node + 1) % 4), 0,
                                  path="remote")
            done.append(eng.now)

        for node in range(3):
            Process(eng, proc(node))
        eng.run()
        assert done == [pytest.approx(net.inject_time(0))] * 3

    def test_traffic_counters(self):
        eng, m, c = make()
        drive(eng, c.transfer(0, 4, 512, path="remote"))
        assert c.counts == {"remote": 1, "loopback": 0, "direct": 0}
        assert c.bytes == {"remote": 512, "loopback": 0, "direct": 0}
        assert c.traffic() == TrafficSnapshot(1, 512, 0, 0)

    def test_negative_bytes_rejected(self):
        eng, m, c = make()
        with pytest.raises(Exception, match="nbytes"):
            drive(eng, c.transfer(0, 4, -1, path="remote"))


class TestSharedMemory:
    def test_visibility_latency_cross_socket(self):
        eng, m, c = make(images=8, ipn=8, nodes=1)
        node = m.spec.node
        arrival = []
        Process(eng, c.transfer(0, 7, 8, path="loopback",
                                on_delivered=lambda: arrival.append(eng.now)))
        eng.run()
        occupancy = (node.bus_hold + 8 / node.smp_bandwidth) * node.cross_socket_bus_factor
        assert arrival[0] == pytest.approx(occupancy + node.smp_latency)

    def test_intra_socket_visibility_is_cheaper(self):
        arrivals = {}
        for dst, key in ((1, "same_socket"), (7, "cross")):
            eng, m, c = make(images=8, ipn=8, nodes=1)
            Process(eng, c.transfer(
                0, dst, 8, path="loopback",
                on_delivered=lambda: arrivals.__setitem__(key, eng.now)))
            eng.run()
        assert arrivals["same_socket"] < arrivals["cross"]

    def test_bus_serializes_notifications(self):
        eng, m, c = make(images=8, ipn=8, nodes=1)
        node = m.spec.node
        done = []

        def proc():
            yield from c.transfer(0, 1, 0, path="loopback")
            done.append(eng.now)

        for _ in range(4):
            Process(eng, proc())
        eng.run()
        assert done == pytest.approx(
            [node.bus_hold * (i + 1) for i in range(4)]
        )

    def test_bandwidth_factor_slows_streaming(self):
        eng, m, c = make(images=8, ipn=8, nodes=1)
        t_full = drive(eng, c.transfer(0, 1, 3_000_000, path="loopback"))
        eng2, m2, c2 = make(images=8, ipn=8, nodes=1,
                            profile=replace(BARE, loopback_bw_factor=0.5))
        t_slow = drive(eng2, c2.transfer(0, 1, 3_000_000, path="loopback"))
        assert t_slow == pytest.approx(t_full * 2, rel=0.01)

    def test_bad_bandwidth_factor_rejected(self):
        eng, m, c = make(profile=replace(BARE, loopback_bw_factor=0.0))
        with pytest.raises(Exception, match="bandwidth_factor"):
            drive(eng, c.transfer(0, 1, 8, path="loopback"))


class TestMachineFacade:
    def test_transfer_routes_same_node_to_shared_memory(self):
        eng, m, c = make()
        drive(eng, c.transfer(0, 1, 64))
        assert c.traffic() == TrafficSnapshot(0, 0, 1, 64)

    def test_transfer_routes_cross_node_to_interconnect(self):
        eng, m, c = make()
        drive(eng, c.transfer(0, 4, 64))
        assert c.traffic() == TrafficSnapshot(1, 64, 0, 0)

    def test_traffic_snapshot_subtraction(self):
        eng, m, c = make()
        marks = []

        def proc():
            yield from c.transfer(0, 4, 64)
            marks.append(c.traffic())
            yield from c.transfer(0, 1, 16)
            yield from c.transfer(0, 2, 16)
            marks.append(c.traffic())

        drive(eng, proc())
        phase = marks[1] - marks[0]
        assert phase == TrafficSnapshot(0, 0, 2, 32)
        assert phase.total_messages == 2

    def test_compute_charges_flops_at_efficiency(self):
        eng, m, _ = make()
        cmd = m.compute(8.8e9, efficiency=1.0)
        assert cmd.delay == pytest.approx(1.0)
        cmd = m.compute(8.8e9, efficiency=0.5)
        assert cmd.delay == pytest.approx(2.0)

    def test_compute_rejects_bad_efficiency(self):
        eng, m, _ = make()
        with pytest.raises(ValueError):
            m.compute(1.0, efficiency=0.0)
        with pytest.raises(ValueError):
            m.compute(1.0, efficiency=1.5)

    def test_compute_rejects_negative_flops(self):
        eng, m, _ = make()
        with pytest.raises(ValueError):
            m.compute(-1.0)

    def test_build_machine_default_packs_nodes(self):
        eng = Engine()
        m = build_machine(eng, paper_cluster(2), 16)
        assert m.topology.node_of(7) == 0
        assert m.topology.node_of(8) == 1

    def test_build_machine_rejects_overflow(self):
        eng = Engine()
        with pytest.raises(ValueError):
            build_machine(eng, paper_cluster(1), 16, images_per_node=16)
