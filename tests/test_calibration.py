"""Regression guards on the calibration: the documented invariants that
the reproduction's shape results rest on (docs/calibration.md).  If a
re-tuning breaks one of these, the benchmark suite will likely drift out
of the paper's bands — fail here first, with a named reason."""

from repro.baselines import caf20, gasnet
from repro.calibration import (
    BACKEND_EFFICIENCY,
    CAF20_GASNET,
    DIRECT_SMP,
    GASNET_RDMA,
    IB_VERBS,
    MPI_NATIVE,
    PAPER_CORES_PER_NODE,
    PAPER_NODES,
)
from repro.machine import paper_cluster
from repro.runtime.config import NAMED_CONFIGS


class TestPlatformConstants:
    def test_paper_cluster_dimensions(self):
        assert PAPER_NODES == 44
        assert PAPER_CORES_PER_NODE == 8
        spec = paper_cluster()
        assert spec.num_nodes == PAPER_NODES
        assert spec.node.cores == PAPER_CORES_PER_NODE

    def test_latency_hierarchy_ordering(self):
        """coherence << wire << conduit software under contention."""
        spec = paper_cluster()
        assert spec.node.intra_socket_latency < spec.node.smp_latency
        assert spec.node.smp_latency < spec.network.latency
        assert spec.network.latency < GASNET_RDMA.local_overhead


class TestProfileInvariants:
    def test_gasnet_local_pricier_than_remote(self):
        """THE asymmetry the paper attacks: unaware same-node RMA through
        GASNet costs more software than a genuine remote put."""
        assert GASNET_RDMA.local_overhead > GASNET_RDMA.remote_overhead

    def test_caf20_adds_glue_over_gasnet(self):
        assert CAF20_GASNET.remote_overhead > GASNET_RDMA.remote_overhead
        assert CAF20_GASNET.local_overhead >= GASNET_RDMA.local_overhead

    def test_verbs_thin_and_parallel(self):
        assert IB_VERBS.remote_overhead < GASNET_RDMA.remote_overhead / 2
        assert not IB_VERBS.serialize_overhead
        assert GASNET_RDMA.serialize_overhead

    def test_mpi_local_path_is_cheap(self):
        """MPI's sm BTL was already node-aware — its local path must be
        cheaper than its remote path (opposite of GASNet's asymmetry)."""
        assert MPI_NATIVE.local_overhead < MPI_NATIVE.remote_overhead

    def test_direct_store_cheapest_of_all(self):
        for profile in (IB_VERBS, GASNET_RDMA, CAF20_GASNET, MPI_NATIVE):
            assert DIRECT_SMP.local_overhead < profile.local_overhead

    def test_loopback_degrades_bandwidth_only_for_gasnet_class(self):
        assert GASNET_RDMA.loopback_bw_factor < 1.0
        assert CAF20_GASNET.loopback_bw_factor < 1.0
        assert MPI_NATIVE.loopback_bw_factor == 1.0


class TestBackendEfficiencies:
    def test_all_configs_resolve(self):
        for cfg in NAMED_CONFIGS.values():
            assert 0 < cfg.compute_efficiency < 1

    def test_openuh_vs_gfortran_code_quality_gap(self):
        """Figure 1's 95-vs-29.48 pins this ratio near 3.2x."""
        ratio = BACKEND_EFFICIENCY["openuh"] / BACKEND_EFFICIENCY["gfortran"]
        assert 2.8 <= ratio <= 3.6

    def test_gcc_between(self):
        assert (BACKEND_EFFICIENCY["gfortran"]
                < BACKEND_EFFICIENCY["gcc-mpi"]
                < BACKEND_EFFICIENCY["openuh"])


class TestBaselineShims:
    def test_gasnet_module_exposes_profiles(self):
        assert gasnet.RDMA is GASNET_RDMA
        assert gasnet.VERBS is IB_VERBS

    def test_gasnet_dissemination_over_builds_unaware_config(self):
        cfg = gasnet.dissemination_over(IB_VERBS, "test-line")
        assert cfg.name == "test-line"
        assert not cfg.hierarchy_aware
        assert cfg.barrier == "dissemination"
        assert cfg.conduit_profile is IB_VERBS

    def test_caf20_module_exposes_configs(self):
        assert caf20.PROFILE is CAF20_GASNET
        assert caf20.OPENUH_BACKEND.backend == "openuh"
        assert caf20.GFORTRAN_BACKEND.backend == "gfortran"
        assert caf20.OPENUH_BACKEND.barrier == "dissemination-mcs"

    def test_named_configs_complete(self):
        assert set(NAMED_CONFIGS) == {
            "uhcaf-2level", "uhcaf-1level",
            "gasnet-ib-dissemination",
            "caf2.0-openuh", "caf2.0-gfortran", "openmpi-gcc",
        }

    def test_uhcaf_stacks_differ_only_in_awareness_axes(self):
        two = NAMED_CONFIGS["uhcaf-2level"]
        one = NAMED_CONFIGS["uhcaf-1level"]
        assert two.conduit_profile is one.conduit_profile
        assert two.backend == one.backend
        assert two.hierarchy_aware and not one.hierarchy_aware
        assert two.barrier != one.barrier


class TestCalibrationChecks:
    """The model's constant checks are entries of the claims registry
    (``repro.report``), evaluated like every other claim."""

    def test_constant_checks_in_band(self):
        from repro.report import REGISTRY, evaluate

        claims = evaluate([e for e in REGISTRY if e.experiment == "model"])
        assert len(claims) == 2
        for c in claims:
            assert c.ok, f"{c.description}: {c.measured}"

    def test_result_ok_logic(self):
        from repro.report import Claim

        assert Claim("x", "d", "p", "m", (1.0, 2.0), 1.5).ok
        assert not Claim("x", "d", "p", "m", (1.0, 2.0), 2.5).ok
        assert not Claim("x", "d", "p", "m", (1.0, 2.0), float("nan")).ok
        assert not Claim("x", "d", "p", "m", (1.0, 2.0), 1.5,
                         error="boom").ok

    def test_raising_cell_fails_its_claim(self):
        from repro.exec import TaskSpec
        from repro.report import REGISTRY, Entry, evaluate, render_report

        good = next(e for e in REGISTRY if e.experiment == "model")
        bad = Entry("X", "broken", "p", {"cell": TaskSpec(_explode)},
                    lambda v: (1.0, "never"), (0.0, 2.0))
        first, second = evaluate([good, bad])
        assert first.ok
        assert not second.ok
        assert "probe broke" in second.error
        assert "probe broke" in render_report([first, second])


def _explode():
    raise RuntimeError("probe broke")
