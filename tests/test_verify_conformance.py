"""Conformance matrix as a marked pytest suite.

Runs the fault-free cells of the ``--quick`` subset (fast shapes, one
payload per kind, 2 fuzz seeds) — one parametrized test per case, so a
failure names the exact algorithm/shape/payload.  Its cells under fault
schedules are sliced in ``tests/test_faults_conformance.py``.  The full
sweep (all shapes including the paper's 11×8 platform, both payloads,
every schedule, 20 seeds) is the CLI: ``python -m repro.verify``.

Marked ``conformance``; deselect with ``-m 'not conformance'``.
"""

import re

import pytest

from repro.collectives.macro import MacroCollectives
from repro.verify import SHAPES, Case, build_matrix, run_case
from repro.verify.conformance import KINDS, PAYLOADS

pytestmark = pytest.mark.conformance

_QUICK = build_matrix(quick=True, schedules=["none"])


def test_matrix_covers_every_registered_algorithm():
    swept = {(c.kind, c.alg) for c in build_matrix()}
    registered = {(kind, alg) for kind, table in KINDS.items() for alg in table}
    assert swept == registered


def test_matrix_covers_every_shape_and_payload():
    full = build_matrix()
    assert {c.shape for c in full} == set(SHAPES)
    for kind, payloads in PAYLOADS.items():
        assert {c.payload for c in full if c.kind == kind} == set(payloads)


@pytest.mark.parametrize("case", _QUICK, ids=[c.label for c in _QUICK])
def test_quick_case(case):
    result = run_case(case, seeds=2)
    assert result.ok, f"{case.label}:\n{result.detail}"


def test_fault_free_case_checks_the_macro_events_path(monkeypatch):
    """The fuzz sweep's monitor keeps macro-events off, so the case's
    unfuzzed production run is the one that sees a macro gather left
    open — here by a disable that forgets none."""
    monkeypatch.setattr(MacroCollectives, "_disable",
                        lambda self, reason: setattr(
                            self, "disabled_reason", reason))
    result = run_case(Case("barrier", "linear", "flat4", "token"), seeds=1)
    # (team uid, kind, seq): the uid counter is process-global
    assert re.fullmatch(r"macro gather still open: \(\d+, 'linear', 2\)",
                        result.detail)


@pytest.mark.slow
@pytest.mark.parametrize("shape", ["7img", "24img"])
def test_non_power_of_two_shapes_full_kinds(shape):
    # The odd shapes excluded from the quick set, one flagship
    # algorithm per kind.
    flagship = {"barrier": "tdlb", "reduce": "two-level",
                "broadcast": "two-level", "allgather": "two-level",
                "alltoall": "two-level"}
    for kind, alg in flagship.items():
        case = Case(kind, alg, shape, PAYLOADS[kind][-1])
        result = run_case(case, seeds=2)
        assert result.ok, f"{case.label}:\n{result.detail}"
