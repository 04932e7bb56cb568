"""Tests for the miniature MPI baseline: point-to-point matching and
MPI_Barrier in all three tunings, with E2's rows pinned to the ulp."""

import numpy as np
import pytest

from repro.baselines.mpi import MPI_TUNINGS, run_mpi
from repro.bench.microbench import mpi_barrier_benchmark
from repro.machine import TrafficSnapshot, paper_cluster


def run(main, ranks=4, ipn=2, tuning="openmpi", **kw):
    nodes = max(-(-ranks // ipn), 1)
    return run_mpi(main, num_ranks=ranks, images_per_node=ipn,
                   spec=paper_cluster(nodes), tuning=tuning, **kw)


class TestPointToPoint:
    def test_send_recv_delivers_payload(self):
        def main(ctx):
            if ctx.rank() == 0:
                yield from ctx.send({"k": [1, 2]}, dest=1, tag=5)
                return None
            return (yield from ctx.recv(0, tag=5))

        assert run(main, ranks=2).results[1] == {"k": [1, 2]}

    def test_tag_matching_out_of_order(self):
        def main(ctx):
            if ctx.rank() == 0:
                yield from ctx.send("a", dest=1, tag=1)
                yield from ctx.send("b", dest=1, tag=2)
                return None
            second = yield from ctx.recv(0, tag=2)
            first = yield from ctx.recv(0, tag=1)
            return (first, second)

        assert run(main, ranks=2).results[1] == ("a", "b")

    def test_any_source_wildcard(self):
        def main(ctx):
            me = ctx.rank()
            if me != 0:
                yield from ctx.send(me, dest=0, tag=9)
                return None
            got = set()
            for _ in range(ctx.size() - 1):
                got.add((yield from ctx.recv(None, tag=9)))
            return got

        assert run(main, ranks=4).results[0] == {1, 2, 3}

    def test_any_tag_wildcard(self):
        def main(ctx):
            if ctx.rank() == 0:
                yield from ctx.send("x", dest=1, tag=("weird", 3))
                return None
            return (yield from ctx.recv(0, tag=None))

        assert run(main, ranks=2).results[1] == "x"

    def test_fifo_between_same_pair_same_tag(self):
        def main(ctx):
            if ctx.rank() == 0:
                for i in range(5):
                    yield from ctx.send(i, dest=1, tag=0)
                return None
            got = []
            for _ in range(5):
                got.append((yield from ctx.recv(0, tag=0)))
            return got

        assert run(main, ranks=2).results[1] == [0, 1, 2, 3, 4]

    def test_numpy_payload_frozen_at_send(self):
        def main(ctx):
            if ctx.rank() == 0:
                buf = np.ones(4)
                yield from ctx.send(buf, dest=1)
                buf[:] = -1
                return None
            got = yield from ctx.recv(0)
            return got.copy()

        assert (run(main, ranks=2).results[1] == 1).all()

    def test_sendrecv_exchange(self):
        # both sides send first: eager sends block only through
        # injection, so the symmetric exchange cannot deadlock
        def main(ctx):
            me = ctx.rank()
            peer = 1 - me
            yield from ctx.send(me * 10, peer, tag=3)
            return (yield from ctx.recv(peer, tag=3))

        assert run(main, ranks=2).results == [10, 0]

    def test_same_node_cheaper_than_cross_node(self):
        def main(ctx):
            me = ctx.rank()
            t0 = ctx.now
            if me == 0:
                yield from ctx.send(0, dest=1)   # same node (ipn=2)
                yield from ctx.send(0, dest=2)   # different node
                return None
            elif me == 1:
                yield from ctx.recv(0)
                return ctx.now - t0
            elif me == 2:
                yield from ctx.recv(0)
                return ctx.now - t0
            return None

        r = run(main, ranks=4, ipn=2)
        assert r.results[1] < r.results[2]


class TestCollectives:
    @pytest.mark.parametrize("tuning", MPI_TUNINGS)
    def test_barrier_holds_everyone(self, tuning):
        def main(ctx):
            if ctx.rank() == 0:
                from repro.sim import Timeout
                yield Timeout(1e-3)
            arrive = ctx.now
            yield from ctx.barrier()
            return (arrive, ctx.now)

        results = run(main, ranks=8, ipn=4, tuning=tuning).results
        last = max(a for a, _ in results)
        assert all(t >= last for _, t in results)

    def test_hierarchical_barrier_beats_tree_with_colocated_ranks(self):
        def body(ctx):
            yield from ctx.barrier()
            t0 = ctx.now
            for _ in range(5):
                yield from ctx.barrier()
            return ctx.now - t0

        t_tree = max(run(body, ranks=16, ipn=8, tuning="openmpi").results)
        t_hier = max(run(body, ranks=16, ipn=8, tuning="openmpi-hierarch").results)
        assert t_hier < t_tree

    def test_unknown_tuning_rejected(self):
        with pytest.raises(ValueError, match="tuning"):
            run(lambda ctx: iter(()), ranks=2, tuning="magic")


#: E2's MPI rows, (seconds per op as float.hex, per-op traffic
#: (inter msgs, inter bytes, intra msgs, intra bytes)) for
#: ``mpi_barrier_benchmark`` at 16(2), 64(8) and 13 ranks 4 per node
E2_ROWS = {
    ("mvapich", 16, 8): ("0x1.8849be4fbad68p-17", (29, 238, 33, 265)),
    ("mvapich", 64, 8): ("0x1.5154dcb90498dp-16", (247, 1977, 132, 1062)),
    ("mvapich", 13, 4): ("0x1.f425a36125dfdp-17", (36, 290, 14, 112)),
    ("openmpi", 16, 8): ("0x1.ef556ebaafccep-17", (2, 16, 29, 232)),
    ("openmpi", 64, 8): ("0x1.0905593fd320ap-15", (14, 114, 117, 938)),
    ("openmpi", 13, 4): ("0x1.1a5ffb224e5c2p-16", (6, 48, 18, 149)),
    ("openmpi-hierarch", 16, 8): ("0x1.7460a3cc39d40p-17", (2, 16, 27, 216)),
    ("openmpi-hierarch", 64, 8): ("0x1.47604f7744198p-16", (24, 192, 108, 864)),
    ("openmpi-hierarch", 13, 4): ("0x1.6a77d3df69066p-17", (8, 64, 17, 139)),
}


class TestE2Rows:
    @pytest.mark.parametrize("tuning,ranks,ipn", sorted(E2_ROWS))
    def test_barrier_row_is_exact(self, tuning, ranks, ipn):
        seconds, traffic = E2_ROWS[tuning, ranks, ipn]
        res = mpi_barrier_benchmark(ranks, ipn, tuning)
        assert res.seconds_per_op.hex() == seconds
        assert res.traffic_per_op == TrafficSnapshot(*traffic)
