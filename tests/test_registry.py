"""The collective registry: its ``register`` contract, its macro
capability map, and that every registered algorithm is one the project
runs.

The guard reads the code with :mod:`ast`, as ``tests/test_unused_imports.py``
does: a (kind, name) pair is *named* when a named config selects it or
when a ``RuntimeConfig(...)`` or ``.with_(...)`` call under ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` passes it as a string
constant.  A registered pair nobody names costs conformance cells and
code without reaching a claim, a benchmark or an example.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.collectives import registry
from repro.runtime.config import NAMED_CONFIGS

ROOT = Path(__file__).resolve().parent.parent
#: the trees whose configs may name an algorithm (tests do not count)
NAMING_TREES = ("src", "benchmarks", "examples", "perfbench")
#: a config's algorithm fields, named after the registry kinds
KINDS = ("barrier", "reduce", "broadcast", "allgather", "alltoall")


def config_calls_naming(source: str, filename: str = "<string>") -> set:
    """(kind, name) of every string-constant algorithm keyword of a
    ``RuntimeConfig(...)`` or ``<config>.with_(...)`` call in ``source``."""
    named = set()
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if callee not in ("RuntimeConfig", "with_"):
            continue
        named.update(
            (kw.arg, kw.value.value) for kw in node.keywords
            if kw.arg in KINDS and isinstance(kw.value, ast.Constant)
            and isinstance(kw.value.value, str))
    return named


def named_algorithms() -> set:
    named = {(kind, getattr(cfg, kind))
             for cfg in NAMED_CONFIGS.values() for kind in KINDS}
    for top in NAMING_TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            named |= config_calls_naming(path.read_text(), str(path))
    return named


def registered_algorithms() -> set:
    return {(kind, name) for kind in KINDS
            for name in registry._TABLES[kind]}


def test_every_registered_algorithm_is_named():
    registered = registered_algorithms()
    named = named_algorithms()
    assert not registered - named, (
        f"registered but run by no config, benchmark, example or "
        f"perfbench workload: {sorted(registered - named)}")
    assert not named - registered, (
        f"named but not registered: {sorted(named - registered)}")


class TestScanner:
    def test_reads_constructor_and_with_keywords(self):
        source = ("A = RuntimeConfig(name='a', barrier='tdlb')\n"
                  "B = A.with_(reduce='two-level', macro_events=False)\n"
                  "C = A.with_(broadcast=name)\n"
                  "D = other(alltoall='pairwise-flat')\n")
        assert config_calls_naming(source) == {
            ("barrier", "tdlb"), ("reduce", "two-level")}


class TestRegistryHygiene:
    def test_macro_kind_is_mandatory_keyword(self):
        with pytest.raises(TypeError):
            registry.register("barrier", "zz-test", lambda ctx, view: None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register("barrier", "tdlb", lambda ctx, view: None,
                              macro_kind=None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown collective kind"):
            registry.register("gather9", "x", lambda: None, macro_kind=None)

    def test_capability_map_preserved(self):
        """The explicit declarations give exactly the five strategies the
        macro-event coordinator replays."""
        assert registry.MACRO_CAPABLE == {
            ("barrier", "tdlb"): "tdlb",
            ("barrier", "linear"): "linear",
            ("reduce", "two-level"): "reduce-2l",
            ("reduce", "recursive-doubling"): "reduce-rd",
            ("broadcast", "two-level"): "bcast-2l",
        }
