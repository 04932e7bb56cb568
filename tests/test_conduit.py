"""Unit tests for the conduit layer: path resolution, software overheads,
per-node serialization, and the loopback penalty — the mechanisms behind
the paper's hierarchy argument."""

import itertools

import pytest

from repro.calibration import DIRECT_SMP, GASNET_RDMA, IB_VERBS
from repro.faults import FaultSchedule, ImageFailure
from repro.faults.manager import FaultManager
from repro.machine import TrafficSnapshot, build_machine, paper_cluster
from repro.runtime.conduit import Conduit
from repro.runtime.program import run_spmd
from repro.sim import Engine, Hold, Process, Timeout
from repro.verify import HBMonitor


def make(profile=GASNET_RDMA, aware=False, images=8, ipn=4, nodes=4):
    eng = Engine()
    machine = build_machine(eng, paper_cluster(nodes), images, images_per_node=ipn)
    return eng, Conduit(machine, profile, hierarchy_aware=aware)


def drive(eng, gen):
    Process(eng, gen)
    eng.run()
    return eng.now


class TestPathResolution:
    def test_cross_node_is_remote(self):
        _, c = make()
        assert c.resolve_path(0, 4) == "remote"

    def test_same_node_unaware_is_loopback(self):
        _, c = make(aware=False)
        assert c.resolve_path(0, 1) == "loopback"

    def test_same_node_aware_is_direct(self):
        _, c = make(aware=True)
        assert c.resolve_path(0, 1) == "direct"

    def test_forced_direct_cross_node_rejected(self):
        _, c = make()
        with pytest.raises(ValueError, match="different nodes"):
            c.resolve_path(0, 4, "direct")

    def test_forced_remote_same_node_degrades_to_loopback(self):
        _, c = make()
        assert c.resolve_path(0, 1, "remote") == "loopback"

    def test_forced_direct_same_node_allowed_even_unaware(self):
        # TDLB forces direct for intranode phases regardless of the
        # runtime's default awareness.
        _, c = make(aware=False)
        assert c.resolve_path(0, 1, "direct") == "direct"

    def test_forced_loopback_cross_node_rejected(self):
        # Regression: this used to silently fall through to the remote
        # branch and return "remote" — a forced intra-node path between
        # images on different nodes is a caller bug exactly like forced
        # direct, and must be rejected the same way.
        _, c = make()
        with pytest.raises(ValueError, match="different nodes"):
            c.resolve_path(0, 4, "loopback")

    def test_forced_path_matrix(self):
        """Every (forced path × placement) combination, pinned."""
        _, c = make(aware=True)
        same, cross = (0, 1), (0, 4)
        assert c.resolve_path(*same, "remote") == "loopback"
        assert c.resolve_path(*same, "loopback") == "loopback"
        assert c.resolve_path(*same, "direct") == "direct"
        assert c.resolve_path(*cross, "remote") == "remote"
        with pytest.raises(ValueError, match="different nodes"):
            c.resolve_path(*cross, "loopback")
        with pytest.raises(ValueError, match="different nodes"):
            c.resolve_path(*cross, "direct")

    def test_unknown_path_rejected(self):
        _, c = make()
        with pytest.raises(ValueError, match="unknown path"):
            c.resolve_path(0, 1, "warp")


class TestForcedPathTransfers:
    """The same matrix end-to-end: forced paths through transfer and
    transfer_nb must land in the right counter or raise before any cost
    is charged."""

    @pytest.mark.parametrize("nonblocking", [False, True],
                             ids=["transfer", "transfer_nb"])
    def test_forced_paths_counted_per_resolved_path(self, nonblocking):
        eng, c = make(aware=False)

        def proc():
            send = c.transfer_nb if nonblocking else c.transfer
            yield from send(0, 4, 8, path="remote")      # cross: remote
            yield from send(0, 1, 8, path="remote")      # same: degrades
            yield from send(0, 1, 8, path="loopback")
            yield from send(0, 1, 8, path="direct")

        drive(eng, proc())
        assert c.counts == {"remote": 1, "loopback": 2, "direct": 1}

    @pytest.mark.parametrize("nonblocking", [False, True],
                             ids=["transfer", "transfer_nb"])
    @pytest.mark.parametrize("path", ["loopback", "direct"])
    def test_forced_intranode_cross_node_raises_without_cost(
            self, nonblocking, path):
        eng, c = make(aware=False)

        def proc():
            send = c.transfer_nb if nonblocking else c.transfer
            with pytest.raises(ValueError, match="different nodes"):
                yield from send(0, 4, 8, path=path)

        drive(eng, proc())
        assert eng.now == 0.0  # rejected before charging any time
        assert c.counts == {"remote": 0, "loopback": 0, "direct": 0}


class TestCosts:
    def test_remote_charges_software_plus_injection(self):
        eng, c = make(profile=IB_VERBS)
        t = drive(eng, c.transfer(0, 4, 0))
        net = c.machine.spec.network
        assert t == pytest.approx(IB_VERBS.remote_overhead + net.inject_time(0))

    def test_direct_is_much_cheaper_than_loopback(self):
        eng1, c1 = make(aware=True)
        t_direct = drive(eng1, c1.transfer(0, 1, 8))
        eng2, c2 = make(aware=False)
        t_loop = drive(eng2, c2.transfer(0, 1, 8))
        assert t_loop > t_direct * 5

    def test_loopback_penalty_delays_delivery(self):
        eng, c = make(aware=False)
        arrival = []

        def proc():
            yield from c.transfer(
                0, 1, 8, on_delivered=lambda: arrival.append(eng.now)
            )

        Process(eng, proc())
        eng.run()
        node = c.machine.spec.node
        base = (GASNET_RDMA.local_overhead + node.bus_hold
                + 8 / (node.smp_bandwidth * GASNET_RDMA.loopback_bw_factor)
                + node.intra_socket_latency)
        assert arrival[0] == pytest.approx(base + GASNET_RDMA.loopback_penalty)

    def test_serialized_overhead_queues_per_node(self):
        eng, c = make(profile=GASNET_RDMA)
        done = []

        def proc():
            yield from c.transfer(0, 4, 0)
            done.append(eng.now)

        # Two senders on the same node contend on the progress engine...
        def proc2():
            yield from c.transfer(1, 5, 0)
            done.append(eng.now)

        Process(eng, proc())
        Process(eng, proc2())
        eng.run()
        assert done[1] - done[0] == pytest.approx(GASNET_RDMA.remote_overhead)

    def test_unserialized_overhead_runs_in_parallel(self):
        eng, c = make(profile=IB_VERBS)
        done = []

        def proc(src, dst):
            yield from c.transfer(src, dst, 0)
            done.append(eng.now)

        Process(eng, proc(0, 4))
        Process(eng, proc(1, 5))
        eng.run()
        # Both pay their own software overhead concurrently; the NIC gap
        # is the only serialization.
        net = c.machine.spec.network
        assert done[0] == pytest.approx(IB_VERBS.remote_overhead + net.inject_time(0))
        assert done[1] - done[0] == pytest.approx(net.inject_time(0))

    def test_counters_by_path(self):
        eng, c = make(aware=True)

        def proc():
            yield from c.transfer(0, 4, 8)   # remote
            yield from c.transfer(0, 1, 8)   # direct (aware)
            yield from c.transfer(0, 1, 8, path="loopback")

        Process(eng, proc())
        eng.run()
        assert c.counts == {"remote": 1, "loopback": 1, "direct": 1}
        assert c.bytes == {"remote": 8, "loopback": 8, "direct": 8}
        assert c.traffic() == TrafficSnapshot(1, 8, 2, 16)

    @pytest.mark.parametrize("nonblocking", [False, True],
                             ids=["transfer", "transfer_nb"])
    def test_counted_when_it_reaches_the_fabric(self, nonblocking):
        # not while the sender is still in its software overhead
        eng, c = make()
        send = c.transfer_nb if nonblocking else c.transfer
        Process(eng, send(0, 4, 64))
        eng.run(until=GASNET_RDMA.remote_overhead / 2)
        assert c.traffic() == TrafficSnapshot(0, 0, 0, 0)
        eng.run()
        assert c.traffic() == TrafficSnapshot(1, 64, 0, 0)


class TestProfiles:
    def test_gasnet_local_path_pricier_than_remote(self):
        """The paper's central observation: unaware same-node RMA through
        GASNet costs *more* software than a genuine remote put."""
        assert GASNET_RDMA.local_overhead > GASNET_RDMA.remote_overhead

    def test_verbs_is_thin(self):
        assert IB_VERBS.remote_overhead < GASNET_RDMA.remote_overhead / 2
        assert not IB_VERBS.serialize_overhead

    def test_direct_smp_is_near_free(self):
        assert DIRECT_SMP.local_overhead < 0.1e-6

    def test_profiles_are_frozen(self):
        with pytest.raises(Exception):
            GASNET_RDMA.remote_overhead = 0.0


class TestRoutes:
    """A route resolves everything about a transfer except its size, once
    per (src, dst, path); its cost table prices sizes from the fabrics'
    own formulas."""

    def test_route_cached_per_src_dst_path(self):
        _, c = make()
        r = c.route(0, 4)
        assert c.route(0, 4) is r
        assert c.route(0, 4, "auto") is r
        forced = c.route(0, 4, "remote")
        assert forced is not r and forced.kind == r.kind == "remote"
        assert c.route(4, 0) is not r
        assert (r.src, r.dst) == (0, 4)

    def test_transfer_resolves_through_the_route_cache(self):
        eng, c = make(aware=True)
        drive(eng, c.transfer(0, 1, 8))
        route = c.route(0, 1)
        assert route.kind == "direct"
        assert 8 in route.costs  # priced on first use

    def test_cost_tables_shared_exactly_when_resource_and_shape_match(self):
        # 2 sockets x 4 cores per node: cores 0-3 socket 0, 4-7 socket 1
        _, c = make(aware=True, images=16, ipn=8, nodes=2)
        sm = c.machine.shared_memory
        node = c.machine.spec.node
        routes = [c.route(a, b, path)
                  for a, b in itertools.product(range(16), repeat=2)
                  for path in ("auto", "remote", "loopback", "direct")
                  if path in ("auto", "remote") or a // 8 == b // 8]

        def shape(r):
            if r.kind == "remote":
                return ("nic",)
            ps = c.machine.topology.placement(r.src)
            pd = c.machine.topology.placement(r.dst)
            factor = (GASNET_RDMA.loopback_bw_factor
                      if r.kind == "loopback" else 1.0)
            crossing = node.socket_of(ps.core) != node.socket_of(pd.core)
            return ("bus", crossing, factor)

        for a, b in itertools.combinations(routes, 2):
            same = (a.costs.resource is b.costs.resource
                    and shape(a) == shape(b))
            assert (a.costs is b.costs) == same, (a, b)
        # one NIC table per source node, one bus table per node, home
        # socket, crossing and bandwidth factor
        tables = {id(r.costs) for r in routes}
        assert len(tables) == 2 + 2 * 2 * 2 * 2
        assert {r.costs.resource for r in routes if r.kind != "remote"} == {
            sm.bus(n, s) for n in range(2) for s in range(2)}

    def test_remote_entry_equals_network_formulas(self):
        _, c = make()
        net = c.machine.spec.network
        r = c.route(1, 5)
        hold, latency = r.costs[4096]
        assert hold.resource is c.machine.interconnect.nic(0)
        assert hold.duration == net.inject_time(4096)
        assert latency == net.wire_time(4096)
        assert r.overhead == Hold(c.progress_engine(0),
                                  GASNET_RDMA.remote_overhead)
        assert r.label == "wire0->1" and r.penalty == 0.0

    def test_loopback_entry_equals_smp_plan_with_penalty(self):
        _, c = make(aware=False)
        sm = c.machine.shared_memory
        r = c.route(0, 1)
        assert r.kind == "loopback"
        occ, lat, home = sm._plan(0, 1, 100, GASNET_RDMA.loopback_bw_factor)
        hold, latency = r.costs[100]
        assert (hold.duration, latency) == (occ, lat)
        assert hold.resource is sm.bus(0, home)
        assert r.penalty == GASNET_RDMA.loopback_penalty > 0.0
        assert r.overhead == Hold(c.progress_engine(0),
                                  GASNET_RDMA.local_overhead)
        assert r.label == "smp0:0->1"

    @pytest.mark.parametrize("dst, crossing", [(1, False), (3, True)])
    def test_direct_entry_equals_smp_plan(self, dst, crossing):
        # 4 images per node on 8-core nodes: cores 0-1 vs 2-3 are on the
        # same socket; use 1 (same socket) and 3 (other socket)
        _, c = make(aware=True, images=8, ipn=8, nodes=1)
        sm = c.machine.shared_memory
        node = c.machine.spec.node
        dst_core = dst if not crossing else 4 + dst
        r = c.route(0, dst_core, "direct")
        assert (node.socket_of(0) != node.socket_of(dst_core)) is crossing
        occ, lat, home = sm._plan(0, dst_core, 64, 1.0)
        hold, latency = r.costs[64]
        assert (hold.duration, latency, hold.resource) == (occ, lat,
                                                           sm.bus(0, home))
        assert r.overhead == Timeout(DIRECT_SMP.local_overhead)
        assert r.penalty == 0.0

    @pytest.mark.parametrize("nonblocking", [False, True],
                             ids=["transfer", "transfer_nb"])
    def test_negative_size_raises_before_any_cost(self, nonblocking):
        eng, c = make()

        def proc():
            send = c.transfer_nb if nonblocking else c.transfer
            with pytest.raises(ValueError, match="nbytes must be >= 0"):
                yield from send(0, 4, -1)

        drive(eng, proc())
        assert eng.now == 0.0
        assert c.counts == {"remote": 0, "loopback": 0, "direct": 0}
        assert c.traffic() == TrafficSnapshot(0, 0, 0, 0)

    def test_fault_filter_and_link_jitter_still_apply(self):
        eng = Engine()
        machine = build_machine(eng, paper_cluster(2), 8, images_per_node=4)
        sched = FaultSchedule(failures=(ImageFailure(6, 0.0),),
                              delay_rate=0.999, delay_max=2e-6, seed=3)
        faults = FaultManager(eng, sched, 8)
        c = Conduit(machine, IB_VERBS, faults=faults)

        def victim():
            yield Timeout(1.0)

        faults.arm([None] * 5 + [Process(eng, victim())] + [None] * 2)
        hits = []
        times = []

        def proc():
            yield Timeout(1e-9)  # image 6 fail-stops at t=0
            yield from c.transfer(0, 5, 8, on_delivered=lambda: hits.append(5))
            times.append(eng.now)
            yield from c.transfer(0, 4, 8, on_delivered=lambda: hits.append(4))

        Process(eng, proc())
        eng.run()
        assert faults.is_failed(5)
        assert hits == [4]  # the dead target's delivery is suppressed
        net = machine.spec.network
        # seeded jitter delays the remote send past its bare cost
        assert times[0] > 1e-9 + IB_VERBS.remote_overhead + net.inject_time(8)
        assert c.counts["remote"] == 2

    def test_monitor_wraps_every_delivery(self):
        eng, c = make()
        monitor = HBMonitor()
        monitor.attach(c.machine.num_images)
        eng.monitor = monitor
        delivered = []

        def proc():
            yield from c.transfer(0, 4, 8, on_delivered=lambda: delivered.append(1))
            yield from c.transfer(0, 1, 8, path="loopback")

        Process(eng, proc(), actor=0)
        eng.run()
        assert monitor.messages == 2
        assert delivered == [1]


class TestNonblockingRejection:
    """A rejected ``transfer_nb`` raises before it marks the run
    asynchronous, so it does not switch macro-events off."""

    @staticmethod
    def _main(ctx, bad_call):
        if bad_call and ctx.this_image() == 1:
            with pytest.raises(ValueError, match="different nodes"):
                yield from ctx.conduit.transfer_nb(0, 1, 8, path="direct")
        for _ in range(3):
            yield from ctx.sync_all()
        return ctx.this_image()

    @pytest.mark.parametrize("bad_call", [False, True])
    def test_rejected_transfer_nb_keeps_macro_events(self, bad_call):
        res = run_spmd(self._main, num_images=16, images_per_node=1,
                       args=(bad_call,))
        macro = res.world.macro
        assert macro.disabled_reason is None
        assert macro.replays == 3
        assert res.results == list(range(1, 17))
