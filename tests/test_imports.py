"""Every name a package module imports is used there or exported by it,
importing the package loads none of the slow standard modules, and the
package root imports nothing.

No linter ships with the toolchain this package is tested on, so this
reads each module's syntax tree instead: an imported name counts as used
when the module reads it as a name (an attribute chain counts through its
first name) or lists it in ``__all__``.
"""

import ast
import os
import subprocess
import sys
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


# ``dataclasses`` imports ``inspect``, which imports ``ast``, ``dis`` and
# ``tokenize``; the record types are NamedTuples so that every process
# that imports the package skips them
SLOW_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# Run in a fresh interpreter, so only the package decides what is imported.
# Prints which of SLOW_MODULES the package and the nine benchmarked modules
# loaded.
FRESH_IMPORT = f"""
import sys
import traceforge
from traceforge import (core, search, countdown, sudoku, arc1d, xtasks,
                        reward, pipeline, cli)
print(" ".join(m for m in {SLOW_MODULES!r} if m in sys.modules))
"""


def test_package_import_loads_no_slow_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_core_import_loads_no_other_package_module():
    # the package root re-exports nothing, so a process that needs only
    # core pays for core alone
    code = ("import sys, traceforge.core\n"
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('traceforge.'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["traceforge.core"]


def test_package_root_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
