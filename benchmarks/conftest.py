"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` module regenerates one of the paper's reported
results (see DESIGN.md §4 for the experiment index) as a paper-style
table.  The E1–E6 modules then :func:`check` their entries of
:data:`repro.report.REGISTRY`, the one place the paper's bands live, so
a calibration regression fails the suite loudly; the ablations E7–E12
assert their own shape criteria.  Run with ``pytest benchmarks/ -s`` to
see the tables.

The E1–E6 cells run through the default result cache
(``.repro-cache/``), the one ``python -m repro`` fills, and
``REPRO_JOBS=auto`` fans sweep cells across worker processes (tables
unchanged; see docs/parallel.md).
"""

from __future__ import annotations

import pytest

from repro.exec import ResultCache
from repro.report import REGISTRY, evaluate, render_report

#: The OS-noise seed every benchmark table is generated with.  Pinned
#: here — rather than relying on ``run_spmd``'s default — so regenerated
#: tables are comparable across runs and the suite cannot silently drift
#: if the default ever changes.
BENCH_JITTER_SEED = 0


@pytest.fixture(autouse=True)
def explicit_seed(request, monkeypatch):
    """Pin the seeded knobs of every ``run_spmd`` call a bench module
    makes: ``jitter_seed`` defaults to :data:`BENCH_JITTER_SEED` and
    schedule fuzzing (``tiebreak_seed``) stays off, unless the benchmark
    passes its own values explicitly."""
    module = request.module
    original = getattr(module, "run_spmd", None)
    if original is None:
        return BENCH_JITTER_SEED

    def seeded(*args, **kwargs):
        kwargs.setdefault("jitter_seed", BENCH_JITTER_SEED)
        kwargs.setdefault("tiebreak_seed", None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "run_spmd", seeded)
    return BENCH_JITTER_SEED


def emit(table, *extra_lines):
    """Print a result table (and summary lines) so ``-s`` runs show the
    paper-style output."""
    print()
    print(table.render())
    for line in extra_lines:
        print(line)
    print()


def check(*experiments: str) -> None:
    """Every full-scale registry entry of ``experiments`` holds."""
    claims = evaluate([e for e in REGISTRY if e.experiment in experiments],
                      cache=ResultCache())
    text = render_report(claims, title=f"claims of {', '.join(experiments)}\n")
    print(text)
    assert claims and all(c.ok for c in claims), text


@pytest.fixture
def once():
    """Run the measured callable once (simulations are deterministic)."""
    return lambda fn: fn()
