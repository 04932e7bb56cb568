"""No module-level import goes unused in ``src/``, ``tests/`` or
``benchmarks/``.

A stand-in for a linter's unused-import rule, built on :mod:`ast` so it
adds no dependency.  A name counts as used when it appears anywhere in
the module as a name (annotations included, quoted ones too) or in the
module's ``__all__``.  Package ``__init__.py`` files re-export what they
import, so they are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks")


def module_imports(tree: ast.Module):
    """``(bound name, line)`` of every import at module level, including
    those under a module-level ``if`` or ``try``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse)
            for handler in getattr(node, "handlers", ()):
                stack.extend(handler.body)
            stack.extend(getattr(node, "finalbody", ()))


def used_names(tree: ast.Module) -> set:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str, filename: str = "<string>") -> list:
    tree = ast.parse(source, filename=filename)
    used = used_names(tree)
    return sorted((line, name) for name, line in module_imports(tree)
                  if name not in used)


def test_no_unused_module_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(), str(path))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


class TestScanner:
    def test_flags_an_unused_name(self):
        source = "from typing import List, Optional\nimport os\nx: List[int] = []\n"
        assert unused_imports(source) == [(1, "Optional"), (2, "os")]

    def test_counts_quoted_annotations_and_all(self):
        source = ("from __future__ import annotations\n"
                  "from typing import Optional\n"
                  "from .a import helper\n"
                  "__all__ = ['helper']\n"
                  "def f(x: 'Optional[int]') -> None: ...\n")
        assert unused_imports(source) == []

    def test_reads_module_level_if_and_try(self):
        source = ("try:\n    import numpy as np\nexcept ImportError:\n"
                  "    np = None\n"
                  "if True:\n    import json\n")
        assert unused_imports(source) == [(6, "json")]

    def test_ignores_imports_inside_functions(self):
        assert unused_imports("def f():\n    import os\n") == []
