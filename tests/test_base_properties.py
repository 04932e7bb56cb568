"""Seeded property-based tests for the collective building blocks in
:mod:`repro.collectives.base`.

Sizes are drawn from one seeded RNG so the sample is stable across runs
(fully reproducible failures) while still sweeping far beyond the
hand-picked sizes the unit tests use.
"""

import math
import random
from types import SimpleNamespace

import pytest

from repro.collectives.base import binomial_peers, dissemination_rounds
from repro.sim import Cell, Engine, WaitFor

_SEED = 20260806
_rng = random.Random(_SEED)
SIZES = sorted({2, 3, 4, 5, 7, 8, 64, *_rng.sample(range(2, 400), 30)})


# ----------------------------------------------------------------------
# dissemination_rounds: exactly ceil(log2 n) rounds, one wait per round
# ----------------------------------------------------------------------
class _StubConduit:
    """Delivers instantly with no cost — we only count control flow."""

    def __init__(self):
        self.sends = []

    def route(self, src, dst, path="auto"):
        return (src, dst)

    def send(self, route, nbytes, on_delivered=None):
        self.sends.append(route)
        if on_delivered is not None:
            on_delivered()
        return
        yield  # pragma: no cover - makes this a generator


class _StubShared:
    def __init__(self, engine):
        self.engine = engine
        self._flags = {}

    def diss_flag(self, index, round_, variant):
        key = (variant, index, round_)
        if key not in self._flags:
            self._flags[key] = Cell(self.engine, 0)
        return self._flags[key]

    def proc_of(self, index):
        return index - 1


def _drive(n, index=1, seq=1):
    """Run dissemination_rounds for one member; return (#waits, conduit)."""
    engine = Engine()
    conduit = _StubConduit()
    shared = _StubShared(engine)
    view = SimpleNamespace(shared=shared, index=index, proc=index - 1,
                           plan=None)
    ctx = SimpleNamespace(conduit=conduit)
    gen = dissemination_rounds(
        ctx, view, list(range(1, n + 1)), "prop", seq=seq
    )
    waits = 0
    try:
        item = next(gen)
        while True:
            if isinstance(item, WaitFor):
                waits += 1
            item = gen.send(None)
    except StopIteration:
        pass
    return waits, conduit


@pytest.mark.parametrize("n", SIZES)
def test_dissemination_round_count_is_ceil_log2(n):
    waits, conduit = _drive(n)
    assert waits == math.ceil(math.log2(n))
    # one notification per round, never to self
    assert len(conduit.sends) == waits
    assert all(src != dst for src, dst in conduit.sends)


def test_dissemination_single_participant_is_noop():
    waits, conduit = _drive(1)
    assert waits == 0
    assert conduit.sends == []


@pytest.mark.parametrize("n", random.Random(_SEED + 1).sample(range(3, 200), 5))
def test_dissemination_partners_cover_all_distances(n):
    # The member at index 1 (proc 0) notifies the participant at
    # distance 2^r in every round r — all distinct targets.
    _waits, conduit = _drive(n)
    targets = [dst for _src, dst in conduit.sends]  # 0-based procs
    expected = [(1 << r) % n for r in range(math.ceil(math.log2(n)))]
    assert targets == expected
    assert len(set(targets)) == len(targets)


# ----------------------------------------------------------------------
# binomial_peers: a proper spanning tree, symmetric, no self-peering
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", SIZES)
def test_binomial_tree_properties(n):
    children_of = {}
    for rank in range(n):
        parent, children = binomial_peers(rank, n)
        children_of[rank] = children
        # no self-peering
        assert parent != rank
        assert rank not in children
        # children stay in range and are distinct
        assert all(0 <= c < n for c in children)
        assert len(set(children)) == len(children)
        # root iff rank 0
        assert (parent is None) == (rank == 0)

    # parent/child symmetry both ways
    for rank in range(n):
        parent, children = binomial_peers(rank, n)
        if parent is not None:
            assert rank in children_of[parent]
        for child in children:
            assert binomial_peers(child, n)[0] == rank

    # the tree spans all n ranks exactly once
    seen = set()
    frontier = [0]
    while frontier:
        rank = frontier.pop()
        assert rank not in seen
        seen.add(rank)
        frontier.extend(children_of[rank])
    assert seen == set(range(n))


@pytest.mark.parametrize("n", SIZES)
def test_binomial_children_ordered_largest_stride_first(n):
    for rank in range(n):
        _parent, children = binomial_peers(rank, n)
        strides = [c - rank for c in children]
        assert strides == sorted(strides, reverse=True)
        assert all(s > 0 and (s & (s - 1)) == 0 for s in strides)


def test_binomial_rank_out_of_range_rejected():
    with pytest.raises(ValueError):
        binomial_peers(5, 5)
    with pytest.raises(ValueError):
        binomial_peers(-1, 4)
