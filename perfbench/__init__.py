"""Benchmark of the simulator: host wall time per simulated operation on
the paper's workloads, with per-layer attribution and a fidelity gate.
See README.md in this directory."""
