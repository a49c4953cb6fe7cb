"""The package names the benchmark in ``perfbench/`` reaches into.

``perfbench/layers.py`` wraps package functions by module and name, and its
workloads build traced records through each traced task's ``build_traced``.
A rename or deletion in ``src/`` that breaks either would only show when
the benchmark runs; these tests make it fail here instead. The benchmark's
file is read, never imported, so running them writes nothing under
``perfbench/``.
"""

import importlib
import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
MODULES = ("core", "search", "countdown", "sudoku", "arc1d", "xtasks",
           "reward", "pipeline", "cli")


class RecordingTracer:
    """Stands in for ``perfbench/tracer.py``: records what would be wrapped."""

    def __init__(self):
        self.added = []

    def add(self, fn, name, label=None, modules=None):
        self.added.append((fn, name, modules))


def load_layers():
    module = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"),
         module.__dict__)
    return module


def package():
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"traceforge.{m}") for m in MODULES})


def test_every_traced_name_resolves():
    layers = load_layers()
    tf = package()
    tracer = RecordingTracer()
    layers.instrument(tracer, tf)
    assert tracer.added
    for fn, name, modules in tracer.added:
        short, attr = name.split(".")
        assert getattr(getattr(tf, short), attr) is fn, name
        for module in modules or ():
            assert getattr(module, attr) is fn, f"{name} in {module.__name__}"


def test_traced_tasks_expose_build_traced():
    layers = load_layers()
    tf = package()
    for task in layers.TRACED:
        assert callable(getattr(tf, task).build_traced), task
