"""Span tracing of traceforge from the outside.

The tracer replaces package functions by wrappers that record one span
(name, start, end, parent) per call. A function is found by identity, so
every reference the package holds to it is patched: the defining module's
attribute, the same object imported into another module's namespace, and
registry dict values such as the pipeline's builder tables. Nothing in
``src/`` is edited, and ``uninstall`` puts every original back.

Spans live in memory for one round. ``take_round`` folds them into self
time per layer (a span's duration minus the time its child spans cover)
and keeps the first rounds' raw spans, up to a cap, to write out at the
end. Worker processes forked while tracing record nothing: a fork hook
turns the tracer off in the child, so pools are measured from the parent.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict

SPAN_FILE_CAP = 50_000

# the one traced call whose pool is measured through RUSAGE_CHILDREN
POOL_SPAN = "pipeline.build_records"


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Records spans while installed; folds them into per-layer totals.

    Totals are keyed by span name, by ``name.sub`` when a call carries a
    sub-layer label, and (inclusive time only) by ``name@cell`` for the
    dataset cell the workload was emitting.
    """

    def __init__(self, modules):
        self._modules = list(modules)
        self._targets = []      # (function, name, label, modules or None)
        self._patches = []      # (container, key, original) while installed
        self._spans = []        # [name, sub, start, end, parent, cell]
        self._stack = []
        self._recording = False
        self.cell = None
        self.kept_spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.cell_self_s = defaultdict(lambda: defaultdict(float))
        self.pool_cpu_s = 0.0   # children's CPU seconds inside POOL_SPAN
        self.pool_wall_s = 0.0  # measured seconds inside POOL_SPAN
        self.rounds = 0
        self.root_s = 0.0
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self):
        self._recording = False
        self._spans = []
        self._stack = []

    # --- what to wrap ----------------------------------------------------

    def add(self, fn, name, label=None, modules=None):
        """Trace every call of ``fn`` under ``name``.

        ``label(args)`` names a sub-layer per call, such as the task of the
        instance being scored. ``modules`` limits patching to references
        held by those modules and labels each with the module's short name,
        which splits a shared search function by the task calling it.
        """
        self._targets.append((fn, name, label, modules))

    def _references(self, fn, modules):
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is fn:
                    yield namespace, key
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            yield value, dkey

    def install(self):
        for fn, name, label, modules in self._targets:
            for mod in modules or self._modules:
                sub = mod.__name__.rsplit(".", 1)[-1] if modules else None
                wrapper = self._wrap(fn, name, label, sub)
                for container, key in list(self._references(fn, [mod])):
                    self._patches.append((container, key, container[key]))
                    container[key] = wrapper
        self._recording = True

    def uninstall(self):
        self._recording = False
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []

    def _wrap(self, fn, name, label, sub):
        tracer = self
        pool = name == POOL_SPAN

        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            spans = tracer._spans
            stack = tracer._stack
            span = [name, label(args) if label else sub, 0.0, 0.0,
                    stack[-1] if stack else -1, tracer.cell]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = children_cpu_s() if pool else 0.0
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if pool:
                    tracer.pool_cpu_s += children_cpu_s() - cpu0
                    tracer.pool_wall_s += span[3] - span[2]

        traced.__wrapped__ = fn
        return traced

    # --- folding spans ---------------------------------------------------

    def take_round(self, scale=1.0):
        """Fold this round's spans into the totals, with every duration
        multiplied by ``scale`` (the round's host normalization)."""
        spans = self._spans
        self._spans = []
        self._stack = []
        covered = [0.0] * len(spans)
        root = 0.0
        for name, sub, start, end, parent, cell in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                root += end - start
        for i, (name, sub, start, end, parent, cell) in enumerate(spans):
            dur = (end - start) * scale
            own = dur - covered[i] * scale
            keys = [name] if sub is None else [name, f"{name}.{sub}"]
            for key in keys:
                self.self_s[key] += own
                self.total_s[key] += dur
                self.calls[key] += 1
            if cell is not None:
                self.cell_self_s[cell][name] += own
                self.total_s[f"{name}@{cell}"] += dur
        room = SPAN_FILE_CAP - len(self.kept_spans)
        if room > 0:
            self.kept_spans.extend((self.rounds, *span) for span in spans[:room])
        self.rounds += 1
        self.root_s += root * scale
