"""Every name a package module imports is used there or exported by it.

No linter ships with the toolchain this package is tested on, so this
reads each module's syntax tree instead: an imported name counts as used
when the module reads it as a name (an attribute chain counts through its
first name) or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "traceforge"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_what_nothing_reads():
    source = ("import os\nimport os.path as osp\nfrom re import sub, compile\n"
              "from typing import Optional\n__all__ = ['Optional']\n"
              "compile('x')\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "sub")]
