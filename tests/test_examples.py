"""Every example must run clean — they all carry their own assertions,
so executing them is an end-to-end test of the public API."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, (
        f"{name} failed:\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "uhcaf-2level" in out and "uhcaf-1level" in out

    def test_heat_diffusion(self):
        out = run_example("heat_diffusion.py")
        assert "final residual" in out

    def test_hpl_demo(self):
        out = run_example("hpl_demo.py")
        assert "GFLOP/s" in out and "||A - L.U||" in out

    def test_teams_microbenchmark_cli(self):
        out = run_example("teams_microbenchmark.py", "--nodes", "2", "4")
        assert "Barrier latency" in out
        assert "co_sum latency" in out
        assert "co_broadcast latency" in out

    def test_pipeline_events(self):
        out = run_example("pipeline_events.py")
        assert "sink verified" in out

    def test_monte_carlo_pi(self):
        out = run_example("monte_carlo_pi.py")
        assert "pi ≈ 3.14" in out

    def test_conjugate_gradient(self):
        out = run_example("conjugate_gradient.py")
        assert "CG converged" in out

    def test_distributed_transpose(self):
        out = run_example("distributed_transpose.py")
        assert "two-level" in out and "pairwise-flat" in out

    def test_distributed_fft(self):
        out = run_example("distributed_fft.py")
        assert "relative error" in out

    def test_random_access(self):
        out = run_example("random_access.py")
        assert "GUPS" in out
