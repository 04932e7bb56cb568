"""Tests for the distributed triangular solves (HPL's solve phase)."""

import pytest

from repro.hpl import run_hpl
from repro.runtime.config import NAMED_CONFIGS, UHCAF_1LEVEL, UHCAF_2LEVEL


class TestSolveResiduals:
    @pytest.mark.parametrize("images,ipn,n,nb", [
        (1, 1, 64, 32),
        (2, 2, 128, 32),
        (4, 2, 128, 32),
        (4, 4, 192, 32),
        (8, 4, 256, 32),
        (16, 8, 256, 32),
    ])
    def test_ax_equals_b_to_machine_precision(self, images, ipn, n, nb):
        report = run_hpl(n=n, nb=nb, num_images=images, images_per_node=ipn,
                         verify=True, solve=True)
        assert report.solve_residual is not None
        assert report.solve_residual < 1e-12

    @pytest.mark.parametrize("config_name", sorted(NAMED_CONFIGS))
    def test_every_stack_solves_correctly(self, config_name):
        report = run_hpl(n=128, nb=32, num_images=4, images_per_node=2,
                         config=NAMED_CONFIGS[config_name], verify=True)
        assert report.solve_residual < 1e-12

    def test_rectangular_grid(self):
        # 8 images → 2×4 grid: row/col teams of different sizes
        report = run_hpl(n=192, nb=32, num_images=8, images_per_node=4,
                         verify=True)
        assert report.solve_residual < 1e-12

    def test_different_rhs_seeds_both_solve(self):
        a = run_hpl(n=64, nb=32, num_images=2, images_per_node=2,
                    verify=True, seed=1)
        b = run_hpl(n=64, nb=32, num_images=2, images_per_node=2,
                    verify=True, seed=2)
        assert a.solve_residual < 1e-12 and b.solve_residual < 1e-12


class TestSolveCosting:
    def test_solve_adds_time(self):
        with_solve = run_hpl(n=128, nb=32, num_images=4, images_per_node=2,
                             solve=True)
        without = run_hpl(n=128, nb=32, num_images=4, images_per_node=2,
                          solve=False)
        assert with_solve.seconds > without.seconds

    def test_solve_is_small_fraction_at_scale(self):
        """O(n²) solve vs O(n³) factorization: the solve must stay a
        minor fraction of the run."""
        with_solve = run_hpl(n=1024, nb=128, num_images=16,
                             images_per_node=8, solve=True)
        without = run_hpl(n=1024, nb=128, num_images=16,
                          images_per_node=8, solve=False)
        assert (with_solve.seconds - without.seconds) < 0.25 * without.seconds

    def test_model_and_verify_mode_times_agree_with_solve(self):
        rv = run_hpl(n=128, nb=32, num_images=4, images_per_node=2,
                     verify=True, solve=True)
        rm = run_hpl(n=128, nb=32, num_images=4, images_per_node=2,
                     verify=False, solve=True)
        assert rm.seconds == pytest.approx(rv.seconds, rel=1e-9)

    def test_no_solve_no_residual(self):
        report = run_hpl(n=64, nb=32, num_images=2, images_per_node=2,
                         verify=True, solve=False)
        assert report.solve_residual is None
        assert report.residual is not None

    def test_two_level_solve_not_slower(self):
        r2 = run_hpl(n=512, nb=64, num_images=16, images_per_node=8,
                     config=UHCAF_2LEVEL)
        r1 = run_hpl(n=512, nb=64, num_images=16, images_per_node=8,
                     config=UHCAF_1LEVEL)
        assert r2.gflops > r1.gflops
