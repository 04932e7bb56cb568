"""Tuned auto-selection dispatch over the algorithm registries.

Production MPI libraries ship "tuned" collective modules (Open MPI's
``coll/tuned``, MVAPICH's tables) whose decision functions were fit
offline by sweeping every algorithm over message sizes and communicator
shapes.  This module is the same idea for the simulated runtime: the
tournament harness (``python -m repro.bench tournament``) measures every
registered algorithm over the machine-shape × payload grid and persists
the per-regime winners as a **crossover table** (``TOURNAMENT.json``);
the ``"tuned"`` registry entries consult that table the first time a
collective of a given regime runs on a team, cache the selection on the
:class:`~repro.teams.team.TeamShared`, and delegate to the measured
winner.  When no table is installed — or no row matches the current
regime — dispatch falls back to the paper's two-level defaults
(:data:`DEFAULTS`), so ``"tuned"`` is always safe to name in a config.

Selection is a zero-cost bookkeeping step (no simulated time, no
messages): every image of the team derives the same regime key from
SPMD-uniform state (the team hierarchy and the payload size), so all
members delegate to the same underlying algorithm and the collective's
results stay bit-identical with running that algorithm directly.

The table is whatever :func:`install_table` installed, process-wide;
with none installed, dispatch uses :data:`DEFAULTS`.  Nothing is read
from the environment or the working directory, so a program's results
do not depend on where it runs; ``install_table("TOURNAMENT.json")``
opts into the committed artifact.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .base import NOTIFY_NBYTES, payload_nbytes

__all__ = [
    "PAYLOAD_BANDS",
    "DEFAULTS",
    "payload_band",
    "shape_key",
    "CrossoverTable",
    "install_table",
    "current_table",
    "tuned_barrier",
    "tuned_allreduce",
    "tuned_bcast",
]

#: payload bands, in the spirit of the eager/rendezvous switch points of
#: real tuned modules: ``small`` ends below the 256 B short-message
#: regime, ``medium`` below 16 KiB, everything above is ``large``.
PAYLOAD_BANDS: Tuple[Tuple[str, float], ...] = (
    ("small", 256.0),
    ("medium", 16 * 1024.0),
    ("large", float("inf")),
)

#: fallback per kind when no crossover row matches — the paper's
#: two-level configuration (:data:`repro.runtime.config.UHCAF_2LEVEL`).
DEFAULTS: Dict[str, str] = {
    "barrier": "tdlb",
    "reduce": "two-level",
    "broadcast": "two-level",
}


def payload_band(nbytes: int) -> str:
    """Band name for a payload of ``nbytes`` bytes."""
    for name, upper in PAYLOAD_BANDS:
        if nbytes < upper:
            return name
    return PAYLOAD_BANDS[-1][0]  # pragma: no cover - inf always matches


def shape_key(num_images: int, images_per_node: int) -> Tuple[int, int]:
    """The (nodes, max-images-per-node) regime key of a block-placed
    shape — matches what a formed team's hierarchy reports, so tournament
    rows and runtime lookups agree."""
    nodes = -(-num_images // images_per_node)
    return nodes, min(num_images, images_per_node)


class CrossoverTable:
    """Measured winners keyed by (kind, nodes, images-per-node, band)."""

    SCHEMA = "repro.bench/tournament/v1"

    def __init__(self, entries: Mapping[Tuple[str, int, int, str], str]):
        self._entries: Dict[Tuple[str, int, int, str], str] = dict(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def best(self, kind: str, nodes: int, ipn: int, band: str) -> Optional[str]:
        """The measured-fastest algorithm for this regime, or None when
        the table has no matching row (caller falls back to DEFAULTS)."""
        return self._entries.get((kind, nodes, ipn, band))

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "CrossoverTable":
        """Build from winner rows (dicts with ``kind``/``nodes``/``ipn``/
        ``band``/``algorithm`` keys — the TOURNAMENT.json winner schema)."""
        entries = {}
        for row in rows:
            key = (str(row["kind"]), int(row["nodes"]), int(row["ipn"]),
                   str(row["band"]))
            entries[key] = str(row["algorithm"])
        return cls(entries)

    @classmethod
    def from_json(cls, path: Union[str, os.PathLike]) -> "CrossoverTable":
        """Load a TOURNAMENT.json artifact (validates its schema tag)."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        schema = doc.get("schema")
        if schema != cls.SCHEMA:
            raise ValueError(
                f"{path}: expected schema {cls.SCHEMA!r}, got {schema!r}"
            )
        return cls.from_rows(doc.get("winners", []))


# ----------------------------------------------------------------------
# Process-wide table installation
# ----------------------------------------------------------------------
_installed: Optional[CrossoverTable] = None


def install_table(table) -> None:
    """Install the crossover table dispatch should use.

    Accepts a :class:`CrossoverTable`, a list of winner rows, a path to a
    TOURNAMENT.json file, or None to drop the installation and fall back
    to :data:`DEFAULTS`.
    """
    global _installed
    if table is None or isinstance(table, CrossoverTable):
        _installed = table
    elif isinstance(table, (str, os.PathLike)):
        _installed = CrossoverTable.from_json(table)
    else:
        _installed = CrossoverTable.from_rows(table)


def current_table() -> Optional[CrossoverTable]:
    """The installed table dispatch consults, or None."""
    return _installed


# ----------------------------------------------------------------------
# Selection (cached per team, per regime)
# ----------------------------------------------------------------------
def _select(view, kind: str, nbytes: int) -> str:
    """The algorithm name ``kind`` dispatches to on this team for this
    payload size — resolved once per (kind, band) regime per team and
    cached on the shared team object."""
    band = payload_band(nbytes)
    cache = view.shared.tuned_selections
    cached = cache.get((kind, band))
    if cached is not None:
        return cached
    from .registry import resolve  # local import: registry imports us

    h = view.shared.hierarchy
    choice = None
    table = current_table()
    if table is not None:
        choice = table.best(kind, h.num_nodes_used, h.max_images_per_node,
                            band)
    if choice is None or choice == "tuned":
        choice = DEFAULTS[kind]
    else:
        try:  # a stale table naming a deregistered algorithm falls back
            resolve(kind, choice)
        except ValueError:
            choice = DEFAULTS[kind]
    cache[(kind, band)] = choice
    return choice


# ----------------------------------------------------------------------
# The registered "tuned" entry points
# ----------------------------------------------------------------------
def tuned_barrier(ctx, view):
    """Barrier that delegates to the measured-fastest algorithm for this
    team's shape (barriers carry only notify-sized payloads)."""
    from .registry import resolve

    fn = resolve("barrier", _select(view, "barrier", NOTIFY_NBYTES))
    yield from fn(ctx, view)


def tuned_allreduce(ctx, view, value, op="sum", result_image=None):
    """Reduction that delegates per (shape, payload band) regime."""
    from .registry import resolve

    fn = resolve("reduce", _select(view, "reduce", payload_nbytes(value)))
    result = yield from fn(ctx, view, value, op, result_image=result_image)
    return result


def tuned_bcast(ctx, view, value, source_image):
    """Broadcast that delegates per (shape, payload band) regime."""
    from .registry import resolve

    fn = resolve("broadcast", _select(view, "broadcast",
                                      payload_nbytes(value)))
    result = yield from fn(ctx, view, value, source_image)
    return result
