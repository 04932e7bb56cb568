"""Picklable task descriptors and stable content fingerprints.

A :class:`TaskSpec` is the unit of work the execution layer moves
around: a plain ``(fn, args, kwargs)`` triple plus a display label.
Everything in it must survive a pickle round-trip to run in a worker
process; tasks that do not (closures, lambdas, live simulator objects)
fail to reach the worker pool and are executed inline in the parent
instead, so callers never have to care.

:func:`stable_fingerprint` turns a task (or any supported value) into a
hex digest that is stable across processes and interpreter runs — the
content half of the result cache's key.  It deliberately refuses to
fingerprint objects whose ``repr`` is identity-based (``<object at
0x...>``): a guessed key could alias two different inputs, and a cache
that can return the wrong answer is worse than no cache.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "TaskSpec",
    "TaskResult",
    "UnstableFingerprint",
    "stable_repr",
    "stable_fingerprint",
]

#: pickle protocol used everywhere in the exec layer (explicit so cached
#: blobs do not change meaning when the interpreter default moves)
PICKLE_PROTOCOL = 4


@dataclass
class TaskSpec:
    """One independent unit of work: ``fn(*args, **kwargs)``."""

    fn: Callable
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: human-readable tag for progress lines and error messages
    label: str = ""
    #: override the cache-key material (callers with a cheaper or more
    #: precise notion of identity than the generic fingerprint)
    cache_key: Optional[str] = None

    def run_inline(self) -> Any:
        return self.fn(*self.args, **self.kwargs)

    def describe(self) -> str:
        if self.label:
            return self.label
        fn = self.fn
        name = getattr(fn, "__qualname__", None) or repr(fn)
        return f"{name}(...)"


@dataclass
class TaskResult:
    """Outcome of one task, in submission order.

    Exactly one of ``value``/``error`` is meaningful: ``error`` is
    ``None`` on success and a one-line description (exception type and
    message, or timeout/crash diagnosis) on failure.
    """

    index: int
    value: Any = None
    error: Optional[str] = None
    #: served from the result cache without executing
    cached: bool = False
    #: executed in the parent process (jobs<=1, unpicklable, or fallback)
    inline: bool = False
    #: execution attempts (2 = retried once after a crash/timeout)
    attempts: int = 0
    #: wall-clock seconds of the successful attempt (0 for cache hits)
    wall_s: float = 0.0
    #: pid of the worker process that produced the value (None for
    #: inline/cached)
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# Stable fingerprints
# ----------------------------------------------------------------------
class UnstableFingerprint(TypeError):
    """The value has no content-stable representation (identity repr)."""


def _function_ref(fn: Callable) -> str:
    mod = getattr(fn, "__module__", None)
    qual = getattr(fn, "__qualname__", None)
    if not mod or not qual or "<locals>" in qual or "<lambda>" in qual:
        raise UnstableFingerprint(
            f"cannot fingerprint non-module-level callable {fn!r}")
    return f"fn:{mod}.{qual}"


def stable_repr(value: Any) -> str:
    """A process-independent textual form of ``value``.

    Covers the vocabulary task arguments are made of — primitives,
    containers, dataclasses, numpy arrays, module-level callables and
    ``functools.partial`` — and raises :class:`UnstableFingerprint` for
    anything whose identity cannot be derived from content.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return repr(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "float:nan"
        return value.hex()
    # numpy scalars/arrays without a hard import dependency
    tobytes = getattr(value, "tobytes", None)
    dtype = getattr(value, "dtype", None)
    if tobytes is not None and dtype is not None:
        shape = getattr(value, "shape", ())
        digest = hashlib.sha256(value.tobytes()).hexdigest()
        return f"ndarray:{shape}:{dtype}:{digest}"
    if isinstance(value, (list, tuple)):
        tag = "list" if isinstance(value, list) else "tuple"
        return f"{tag}[" + ",".join(stable_repr(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "set{" + ",".join(sorted(stable_repr(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted((stable_repr(k), stable_repr(v))
                       for k, v in value.items())
        return "dict{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    if isinstance(value, functools.partial):
        return (f"partial({_function_ref(value.func)},"
                f"{stable_repr(value.args)},{stable_repr(value.keywords)})")
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = ",".join(
            f"{f.name}={stable_repr(getattr(value, f.name))}"
            for f in dataclasses.fields(value))
        return f"{cls.__module__}.{cls.__qualname__}({fields})"
    if callable(value):
        return _function_ref(value)
    text = repr(value)
    if " at 0x" in text or "object at" in text:
        raise UnstableFingerprint(
            f"identity-based repr for {type(value).__qualname__}; "
            f"cannot build a content key")
    return f"{type(value).__module__}.{type(value).__qualname__}:{text}"


def stable_fingerprint(task: TaskSpec) -> str:
    """Content digest of a task's callable + arguments (hex sha256)."""
    if task.cache_key is not None:
        material = f"override:{task.cache_key}"
    else:
        # stable_repr handles both plain module-level callables (same
        # material as _function_ref) and functools.partial cells.
        material = (f"{stable_repr(task.fn)}|{stable_repr(task.args)}"
                    f"|{stable_repr(task.kwargs)}")
    return hashlib.sha256(material.encode()).hexdigest()
