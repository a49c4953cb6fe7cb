"""The package names the benchmark in ``perfbench/`` reaches into.

``perfbench/layers.py`` wraps package functions by module and name, and
``perfbench/workloads.py`` calls package functions and reads package
constants through its ``tf`` namespace of modules. A rename or deletion in
``src/`` that breaks either would only show when the benchmark runs; these
tests make it fail here instead. The benchmark's files are read, never
imported, so running them writes nothing under ``perfbench/``.
"""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
WORKLOADS = PERFBENCH / "workloads.py"
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


def tf_path(node, aliases):
    """The ``["tf", module, name, ...]`` chain an expression reads, or None.
    ``self.tf`` is the root; ``aliases`` maps local names to chains."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        if (node.attr == "tf" and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return ["tf"]
        base = tf_path(node.value, aliases)
        return base + [node.attr] if base else None
    return None


def workload_reads():
    """Every ``tf`` chain ``perfbench/workloads.py`` reads, directly or
    through a local alias such as ``core = self.tf.core``, and the calls
    it makes through one, as ``(chain, call)`` pairs (``call`` is None for
    a read that is not called)."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    reads = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                path = tf_path(node.value, aliases)
                if path:
                    aliases[node.targets[0].id] = path
        calls = {id(node.func): node for node in ast.walk(fn)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(fn):
            path = tf_path(node, aliases)
            if path and len(path) > 1:
                reads.append((path, calls.get(id(node))))
    return reads


def test_every_workload_read_resolves():
    tf = package()
    reads = workload_reads()
    assert reads
    for path, _ in reads:
        obj = tf
        for attr in path[1:]:
            assert hasattr(obj, attr), ".".join(path)
            obj = getattr(obj, attr)


def test_workload_manifest_keywords_are_fields():
    manifest = package().pipeline.DatasetManifest
    fields = set(manifest._fields)
    required = fields - set(manifest._field_defaults)
    calls = [call for path, call in workload_reads()
             if path == ["tf", "pipeline", "DatasetManifest"] and call]
    assert calls
    for call in calls:
        names = {kw.arg for kw in call.keywords}
        assert names <= fields
        assert not call.args and required <= names
