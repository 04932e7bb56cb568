"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.exec import ResultCache
from repro.machine import paper_cluster
from repro.report import run_report
from repro.runtime.config import UHCAF_2LEVEL
from repro.runtime.program import run_spmd


def run_small(main, images=4, ipn=2, config=UHCAF_2LEVEL, **kwargs):
    """Run an SPMD program on a small cluster sized to fit."""
    nodes = max(-(-images // ipn), 1)
    return run_spmd(
        main, num_images=images, images_per_node=ipn,
        spec=paper_cluster(nodes), config=config, **kwargs,
    )


@pytest.fixture
def spmd():
    """Fixture handing tests the :func:`run_small` helper."""
    return run_small


@pytest.fixture(scope="session")
def quick_report(tmp_path_factory):
    """The quick report, evaluated once per session: ``(root, cache,
    claims)``.  Its cache sits where ``python -m repro`` and ``python -m
    repro.bench`` look when run from ``root``, so the report CLI and the
    quick Figure 1 tests are served from it."""
    root = tmp_path_factory.mktemp("report")
    cache = ResultCache(root=root / ".repro-cache")
    return root, cache, run_report(quick=True, cache=cache)
