"""Host-normalized time.

The shared hosts this benchmark runs on change speed under it: other
tenants slow the same code by up to 1.5x in phases that last seconds, and
the level drifts by a third over minutes. CPU time shows the same
slowdown, so it is not scheduling. A spin loop slows in step with the
program, so the slowdown comes from the core the benchmark runs on.

``HostClock`` runs a fixed pure-Python reference loop (about 1 ms) after
every timed unit of work. It scales the unit's seconds by
``REFERENCE_NOMINAL_S`` over the mean of the reference times just before
and just after the unit. A timing then reads as seconds on a host where the
reference takes ``REFERENCE_NOMINAL_S``, and the host's slowdown cancels.
On a quiet host the scale is close to 1. The reference loop is fixed and
does not touch the program, so a change to the program moves the figures
exactly as it moves raw time. The constant must not change, or figures
from before and after the change stop being comparable.
"""

from __future__ import annotations

import time

# reference-loop seconds on a quiet 2-core x86 host under CPython 3.11
REFERENCE_NOMINAL_S = 1.2e-3


def _reference_loop():
    table = {}
    for i in range(8000):
        table[i % 101] = table.get(i % 89, 0) + i * 3
    items = [(i * 7919) % 1009 for i in range(4000)]
    items.sort()
    return sum(items[::7]) + len(table)


def reference_seconds() -> float:
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


class HostClock:
    """Scales measured seconds to host-normalized seconds."""

    def __init__(self):
        for _ in range(3):  # let the loop's own first-call costs pass
            reference_seconds()
        self.mark()

    def mark(self):
        """Take the reference just before a unit of work starts."""
        self._last = reference_seconds()

    def factor(self) -> float:
        """Scale for the unit of work that just ended: nominal reference
        time over the mean of the references around the unit."""
        now = reference_seconds()
        scale = REFERENCE_NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        return scale
