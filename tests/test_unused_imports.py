"""Every import is named by its module.

An import that nothing in its module names is dead weight that hides
what a module really depends on.  Neither pyflakes nor ruff ships with
the project, so this scan parses each module of ``src/``, ``tests/``
and ``examples/`` with :mod:`ast`.  A name an import binds counts as
named when the module uses it as a name, when a string annotation
(``Optional["RDD"]``) mentions it, when a function takes a parameter
of that name (a pytest fixture imported from another module) or when
the module lists it in ``__all__``.  An ``__init__.py`` re-exports what
it imports, so it is not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _annotation_names(node: ast.AST) -> set:
    """Names inside the string parts of an annotation."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {
                n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
            }
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` of each import ``source`` never names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.arg):
            named.add(node.arg)
            if node.annotation is not None:
                named |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                named |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            named |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            named |= {e.value for e in node.value.elts}
    return sorted(
        (line, name) for name, line in imported.items() if name not in named
    )


@pytest.mark.parametrize("top", ["src", "tests", "examples"])
def test_no_unused_imports(top):
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "imports nothing in their module names: " + ", ".join(
        found
    )


class TestTheScan:
    def test_an_unused_import_is_found(self):
        source = "import random\nfrom typing import Any, List\nx: List = []\n"
        assert unused_imports(source) == [(1, "random"), (2, "Any")]

    @pytest.mark.parametrize("source", [
        "import numpy as np\nnp.zeros(1)\n",
        "import os.path\nos.sep\n",
        "from typing import Optional\ndef f(x: Optional['RDD']): pass\n",
        "from m import RDD\ndef f(x: 'RDD'): pass\n",
        "from m import RDD\ndef f() -> 'list[RDD]': pass\n",
        "from m import fixture\ndef test_it(fixture): pass\n",
        "from m import name\n__all__ = ['name']\n",
        "from __future__ import annotations\n",
    ])
    def test_what_counts_as_named(self, source):
        assert unused_imports(source) == []
