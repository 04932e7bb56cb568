"""Attribute profiled wall time to the simulator's layers.

A layer is a set of modules of the ``repro`` package; the map below is
the only place that knows it.  Self time of a function defined in
``repro`` goes to that module's layer, self time in NumPy to ``kernel``
(the numeric work the simulated program asked for, whoever called it),
and self time in the benchmark's own programs to ``other``.  Everything
else -- C functions such as ``len`` or ``generator.send``, and the
standard library -- does work on behalf of its callers: its self time
is split over its callers' layers in proportion to the time pstats
records on each caller edge.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from typing import Dict, Optional, Tuple

#: layer names, in report order
LAYERS = (
    "engine", "process", "primitives", "runtime", "conduit", "machine",
    "collectives", "macro", "teams", "kernel", "exec", "other",
)

#: ``repro``-relative module path prefix -> layer; the longest match
#: wins, and a module no prefix matches is ``other``
MODULE_LAYERS = {
    "sim/engine": "engine",
    "sim/process": "process",
    "sim/primitives": "primitives",
    "runtime/": "runtime",
    "runtime/conduit": "conduit",
    "machine/": "machine",
    "collectives/": "collectives",
    "collectives/macro": "macro",
    "baselines/": "collectives",
    "teams/": "teams",
    "apps/": "kernel",
    "hpl/": "kernel",
    "exec/": "exec",
}

_PREFIXES = sorted(MODULE_LAYERS, key=len, reverse=True)

Func = Tuple[str, int, str]


@functools.lru_cache(maxsize=None)
def package_dirs() -> Tuple[str, str, str]:
    """Directories of ``repro``, NumPy and this benchmark, each ending in
    a path separator."""
    import numpy
    import repro

    # unresolved, like the file names in code objects
    return tuple(os.path.dirname(p) + os.sep
                 for p in (repro.__file__, numpy.__file__, __file__))


def layer_of_file(path: str) -> Optional[str]:
    """Layer owning code in ``path``; None when its callers own it."""
    repro_dir, numpy_dir, bench_dir = package_dirs()
    if path.startswith(repro_dir):
        rel = path[len(repro_dir):].replace(os.sep, "/")
        for prefix in _PREFIXES:
            if rel.startswith(prefix):
                return MODULE_LAYERS[prefix]
        return "other"
    if path.startswith(numpy_dir):
        return "kernel"
    if path.startswith(bench_dir):
        return "other"
    return None


class _Owners:
    """Memoized share of each function's self time per layer."""

    def __init__(self, stats: dict):
        self.stats = stats
        self.memo: Dict[Func, Dict[str, float]] = {}

    def __call__(self, func: Func, seen: frozenset = frozenset()) -> Dict[str, float]:
        share = self.memo.get(func)
        if share is not None:
            return share
        if func[0] == "~":  # a C function
            layer = "kernel" if "numpy" in func[2] else None
        else:
            layer = layer_of_file(func[0])
        if layer is not None:
            share = {layer: 1.0}
        else:
            share = self._from_callers(func, seen | {func})
        if not seen:  # only answers not cut short by a cycle are reusable
            self.memo[func] = share
        return share

    def _from_callers(self, func: Func, seen: frozenset) -> Dict[str, float]:
        callers = {c: e for c, e in self.stats[func][4].items() if c not in seen}
        weights = {c: e[2] for c, e in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: e[1] for c, e in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        share: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in self(caller, seen).items():
                share[layer] = share.get(layer, 0.0) + part * weight / total
        return share

    def main(self, func: Func) -> str:
        share = self(func)
        return max(share, key=share.__getitem__)


def attribute(profile: cProfile.Profile):
    """``(self_s, edges)`` for one profile.

    ``self_s`` maps every layer in :data:`LAYERS` to seconds of self
    time.  ``edges`` maps ``(caller_layer, callee_layer)`` pairs of
    different layers to ``[calls, callee_self_s]`` summed over the
    function-level caller edges pstats recorded; a function owned by
    its callers sits in the layer that owns most of its time.
    """
    stats = pstats.Stats(profile).stats
    owners = _Owners(stats)
    self_s = dict.fromkeys(LAYERS, 0.0)
    edges: Dict[Tuple[str, str], list] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        for layer, part in owners(func).items():
            self_s[layer] += tt * part
        callee = owners.main(func)
        for caller, (_ecc, calls, edge_tt, _ect) in callers.items():
            src = owners.main(caller)
            if src != callee:
                edge = edges.setdefault((src, callee), [0, 0.0])
                edge[0] += calls
                edge[1] += edge_tt
    return self_s, edges
