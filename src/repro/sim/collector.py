"""Pausing CPython's cyclic garbage collector while a world is built and run.

Building a machine and running a program on it allocate hundreds of
thousands of container objects (placements, resources, processes,
generators, events, cells) that stay alive until the run ends.  Each
allocation counts towards the collector's thresholds, so the collector
runs over and over during set-up and the run, and every full collection
walks the whole live world only to free nothing: a finished run leaves
it no cycles to find.  Reference counting frees what a run drops, with
or without the collector.
"""

from __future__ import annotations

import gc

__all__ = ["collector_paused"]


class collector_paused:
    """Context manager: disable the cyclic collector for the block.

    On exit, normal or by an exception, the collector is re-enabled
    only if it was enabled on entry; a block never disables it for its
    caller, so nested blocks and callers that keep it off themselves
    see their own state come back.  Once re-enabled, the collector
    starts one young collection at the next allocation, which moves the
    objects the block allocated out of the youngest generation.
    Exiting allocates nothing, so that collection starts after the
    block, never inside it.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._was_enabled:
            gc.enable()
