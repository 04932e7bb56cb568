"""Tests for MPI non-blocking point-to-point (isend/irecv/wait/waitall)."""

import numpy as np

from repro.baselines.mpi import run_mpi
from repro.machine import paper_cluster


def run(main, ranks=2, ipn=2):
    nodes = max(-(-ranks // ipn), 1)
    return run_mpi(main, num_ranks=ranks, images_per_node=ipn,
                   spec=paper_cluster(nodes))


class TestIsend:
    def test_basic_roundtrip(self):
        def main(ctx):
            if ctx.rank() == 0:
                req = yield from ctx.isend("payload", dest=1, tag=1)
                yield from ctx.wait(req)
                return None
            req = yield from ctx.irecv(0, tag=1)
            return (yield from ctx.wait(req))

        assert run(main).results[1] == "payload"

    def test_isend_returns_faster_than_send(self):
        def nb(ctx):
            if ctx.rank() == 0:
                t0 = ctx.now
                yield from ctx.isend(np.zeros(100_000), dest=1)
                return ctx.now - t0
            yield from ctx.recv(0)
            return None

        def blocking(ctx):
            if ctx.rank() == 0:
                t0 = ctx.now
                yield from ctx.send(np.zeros(100_000), dest=1)
                return ctx.now - t0
            yield from ctx.recv(0)
            return None

        t_nb = run(nb).results[0]
        t_b = run(blocking).results[0]
        assert t_nb < t_b

    def test_multiple_outstanding_sends_in_order(self):
        def main(ctx):
            if ctx.rank() == 0:
                reqs = []
                for i in range(6):
                    reqs.append((yield from ctx.isend(i, dest=1, tag=0)))
                yield from ctx.waitall(reqs)
                return None
            got = []
            for _ in range(6):
                got.append((yield from ctx.recv(0, tag=0)))
            return got

        assert run(main).results[1] == [0, 1, 2, 3, 4, 5]

    def test_payload_frozen_at_post(self):
        def main(ctx):
            if ctx.rank() == 0:
                buf = np.ones(4)
                req = yield from ctx.isend(buf, dest=1)
                buf[:] = -1
                yield from ctx.wait(req)
                return None
            got = yield from ctx.recv(0)
            return got.copy()

        assert (run(main).results[1] == 1).all()


class TestIrecvWaitall:
    def test_irecv_by_tag(self):
        def main(ctx):
            if ctx.rank() == 0:
                yield from ctx.send("a", dest=1, tag=1)
                yield from ctx.send("b", dest=1, tag=2)
                return None
            r2 = yield from ctx.irecv(0, tag=2)
            r1 = yield from ctx.irecv(0, tag=1)
            v2 = yield from ctx.wait(r2)
            v1 = yield from ctx.wait(r1)
            return (v1, v2)

        assert run(main).results[1] == ("a", "b")

    def test_waitall_mixed_kinds(self):
        def main(ctx):
            me = ctx.rank()
            peer = 1 - me
            sreq = yield from ctx.isend(me * 10, dest=peer, tag=7)
            rreq = yield from ctx.irecv(peer, tag=7)
            results = yield from ctx.waitall([sreq, rreq])
            return results

        out = run(main).results
        assert out[0] == [None, 10]
        assert out[1] == [None, 0]

    def test_overlap_with_compute(self):
        """isend + compute + wait beats send + compute for large payloads."""
        from repro.sim import Timeout

        def overlapped(ctx):
            if ctx.rank() == 0:
                req = yield from ctx.isend(np.zeros(200_000), dest=1)
                yield Timeout(150e-6)
                yield from ctx.wait(req)
            else:
                yield from ctx.recv(0)
            return ctx.now

        def sequential(ctx):
            if ctx.rank() == 0:
                yield from ctx.send(np.zeros(200_000), dest=1)
                yield Timeout(150e-6)
            else:
                yield from ctx.recv(0)
            return ctx.now

        assert max(run(overlapped).results) < max(run(sequential).results)
