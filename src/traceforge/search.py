"""A solve's path and its linearization into reasoning traces.

A solver returns its root-to-solution path as a list of
:class:`SearchNode`: the root, then one node per step, each carrying the
state after the step and the step's key. The trace builder injects a
controlled number of wrong-branch detours, which the task's extend walks
off path nodes and returns as text, so nothing writes to a solve. The
result is a :class:`~traceforge.core.ReasoningTrace`: the path's step
texts plus each detour's wrong step texts, so the rendered trace holds
exactly one backtrack marker per injected detour, which is the knob the
dataset builders expose.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .core import Detour, GenerationError, ReasoningTrace, Rng, derive_seed

# Puzzles sampled per traced record before giving up.
MAX_TRACE_RETRIES = 50

# Most wrong steps one detour walks down its branch.
MAX_DETOUR_DEPTH = 2


class SearchNode(NamedTuple):
    state_text: str  # the step's text; empty at the root
    payload: object = None  # task-specific state after the step
    key: object = None  # the step, in the terms the task's extend uses


def solution_path(nodes: list) -> list[int]:
    """Positions of a solve's nodes, which are its path in order. It stays
    only because the benchmark wraps it by name."""
    return list(range(len(nodes)))


# ``extend(state, taken, rng)`` walks one wrong branch from the path node
# whose payload is ``state``, starting with a step whose key is not in
# ``taken``, and returns (that first key, the walk's step texts, why the
# branch is dead), or None when no wrong branch is left. The observation
# draws no random numbers.
ExtendFn = Callable[[object, set, Rng], Optional[tuple]]


def select_detours(nodes: list, path: list, k: int, rng: Rng,
                   extend_fn: ExtendFn) -> list:
    """Choose ``k`` detours along the solution path, each walked by the
    task's ``extend_fn``; returns them sorted by resume step, those at one
    step in selection order.

    Branch points are drawn uniformly without replacement from the path
    positions that can host a detour (the root and the final node are
    excluded: a detour must return to an already-stated positive step, and
    branching after the solution would be vacuous). When k exceeds the
    number of eligible positions, selection continues in further rounds
    that revisit positions. Each position keeps the keys taken there,
    starting with the next path node's and adding each detour's first key,
    so the next visit starts differently. Raises GenerationError when the
    path cannot host k detours (callers resample a fresh puzzle).
    """
    if k < 0:
        raise ValueError(f"detour count must be >= 0, got {k}")

    active = set(range(1, len(path) - 1))
    taken = {}
    detours: list[Detour] = []
    while len(detours) < k and active:
        for pos in rng.sample(sorted(active), len(active)):
            if len(detours) >= k:
                break
            keys = taken.setdefault(pos, {nodes[path[pos + 1]].key})
            found = extend_fn(nodes[path[pos]].payload, keys, rng)
            if found is None:
                active.discard(pos)
                continue
            key, texts, observation = found
            keys.add(key)
            detours.append(Detour(pos, tuple(texts), observation))
    if len(detours) < k:
        raise GenerationError(
            f"path hosts {len(detours)} of {k} requested detours")
    detours.sort(key=lambda d: d.resume_step)
    return detours


def linearize(nodes: list, path: list, detours: list,
              answer: str) -> ReasoningTrace:
    """The trace of a solve: the state texts of the path after the root as
    its steps, ``detours`` as :func:`select_detours` returns them, and
    ``answer``."""
    return ReasoningTrace(tuple(nodes[i].state_text for i in path[1:]),
                          tuple(detours), answer)


def strip_detours(trace: ReasoningTrace) -> ReasoningTrace:
    """The same solve without its detours, which renders identically to a
    trace built with zero detours."""
    return trace._replace(detours=())


def sample_named(task: str, instance_id: int, seed: int, sample: Callable,
                 rng: Rng):
    """``sample(rng)``, re-raising its GenerationError with the task, id and
    seed that reproduce it."""
    try:
        return sample(rng)
    except GenerationError as exc:
        raise GenerationError(
            f"{task} id {instance_id}: {exc} (seed {seed:#018x})") from exc


def build_with_retries(task: str, instance_id: int, seed: int, k: int,
                       sample: Callable, make_trace: Callable):
    """Sample puzzles until one yields a trace with exactly ``k`` backtracks.

    Attempt ``a`` draws from ``Rng(derive_seed(seed, a))``:
    ``sample(rng)`` makes a puzzle, then ``make_trace(puzzle, k, rng)``
    linearizes it. Only a GenerationError from ``make_trace`` (the puzzle
    cannot host ``k`` detours) moves on to attempt ``a + 1``; any other
    exception is a fault and propagates from the attempt that raised it.
    Gives up after ``MAX_TRACE_RETRIES`` attempts with a GenerationError
    naming the task, id, k and seed. A GenerationError from ``sample``
    itself is not retried; :func:`sample_named` re-raises it naming the
    task, id and seed. Returns (puzzle, trace), the trace carrying
    ``instance_id``.
    """
    for attempt in range(MAX_TRACE_RETRIES):
        rng = Rng(derive_seed(seed, attempt))
        puzzle = sample_named(task, instance_id, seed, sample, rng)
        try:
            trace = make_trace(puzzle, k, rng)
        except GenerationError:
            continue
        return puzzle, trace._replace(instance_id=instance_id)
    raise GenerationError(
        f"{task} id {instance_id}: no puzzle hosting k={k} backtracks after "
        f"{MAX_TRACE_RETRIES} attempts (seed {seed:#018x})"
    )
