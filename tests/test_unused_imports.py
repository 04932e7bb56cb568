"""No module-level import goes unused in ``src/``, ``tests/`` or
``benchmarks/``, and no function or class defined in ``src/`` goes
unnamed.

A stand-in for a linter's unused-import rule, built on :mod:`ast` so it
adds no dependency.  A name counts as used when it appears anywhere in
the module as a name (annotations included, quoted ones too) or in the
module's ``__all__``.  Package ``__init__.py`` files re-export what they
import, so they are skipped.

The dead-definition check is coarser: a function or class defined in
``src/`` must have its name appear somewhere in the code trees other
than at its own definitions, as an identifier in any file's text (a
string naming it counts, so does a docstring).  Dunder methods are
called by the language and are exempt.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks")
#: the trees whose text may name a ``src/`` definition
CODE_TREES = ("src", "tests", "benchmarks", "perfbench", "examples")


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


def dead_definitions(sources: dict) -> list:
    """``(path, line, name)`` of each function or class defined in a
    ``src/`` file of ``sources`` (path → text) whose name appears
    nowhere in ``sources`` but at its definitions."""
    mentions = Counter()
    for text in sources.values():
        mentions.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    defined = []
    for path, text in sources.items():
        if not path.startswith("src/"):
            continue
        defined += [(path, node.lineno, node.name)
                    for node in ast.walk(ast.parse(text, filename=path))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))]
    definitions = Counter(name for _, _, name in defined)
    return sorted(d for d in defined
                  if not (d[2].startswith("__") and d[2].endswith("__"))
                  and mentions[d[2]] <= definitions[d[2]])


def test_no_dead_definitions():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in CODE_TREES for path in sorted((ROOT / top).rglob("*.py"))
    }
    found = [f"{path}:{line}: {name}"
             for path, line, name in dead_definitions(sources)]
    assert not found, "defined but never named:\n" + "\n".join(found)


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


class TestDeadDefinitions:
    def test_flags_a_definition_named_nowhere_else(self):
        sources = {"src/a.py": "def used():\n    pass\n\n"
                               "def unused():\n    used()\n",
                   "tests/t.py": "class Helper: pass\n"}
        assert dead_definitions(sources) == [("src/a.py", 4, "unused")]

    def test_a_mention_in_any_tree_or_string_counts(self):
        sources = {"src/a.py": "def by_test(): pass\n"
                               "def by_name(): pass\n"
                               "def by_attr(): pass\n"
                               "DISPATCH = 'by_name'\n",
                   "examples/e.py": "import a\na.by_test()\n",
                   "perfbench/p.py": "x.by_attr\n"}
        assert dead_definitions(sources) == []

    def test_two_definitions_need_a_third_mention(self):
        sources = {"src/a.py": "class A:\n    def run(self): pass\n"
                               "class B:\n    def run(self): pass\n"
                               "A().run\nB\n"}
        assert dead_definitions(sources) == []
        sources["src/a.py"] = sources["src/a.py"].replace("A().run\n", "A()\n")
        assert dead_definitions(sources) == [("src/a.py", 2, "run"),
                                             ("src/a.py", 4, "run")]

    def test_dunders_are_exempt(self):
        assert dead_definitions({"src/a.py": "class A:\n"
                                 "    def __repr__(self): pass\nA\n"}) == []
