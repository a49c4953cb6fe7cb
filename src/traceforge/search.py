"""Search trees and their linearization into reasoning traces.

A solver produces a :class:`SearchTree` that holds only its
root-to-solution path, with intermediate states as nodes, so each path
node's first child is the next path step. The trace builder injects a
controlled number of wrong-branch detours, each of which adds its own
nodes when the task's extend walks it off a path node, so a tree holds
the path plus the detours taken and nothing else. The result is a
:class:`~traceforge.core.ReasoningTrace`: the path's step texts plus each
detour's wrong step texts, so the rendered trace holds exactly one
backtrack marker per injected detour, which is the knob the dataset
builders expose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import Detour, GenerationError, ReasoningTrace, derive_seed

# Puzzles sampled per traced record before giving up.
MAX_TRACE_RETRIES = 50

# Most wrong steps one detour walks down its branch.
MAX_DETOUR_DEPTH = 2


@dataclass
class SearchNode:
    state_text: str
    children: list = field(default_factory=list)  # child ids, DFS order
    payload: object = None  # task-specific state snapshot


class SearchTree:
    """A generated puzzle's solution path plus the detours taken.

    Node ids are list positions; the first node added is the root. The
    solver adds each path child first, and detours append later children.
    """

    def __init__(self) -> None:
        self.nodes: list[SearchNode] = []
        self.root: Optional[int] = None

    def add_node(self, state_text: str, parent: Optional[int] = None,
                 payload: object = None) -> int:
        nid = len(self.nodes)
        self.nodes.append(SearchNode(state_text, [], payload))
        if parent is None:
            if self.root is not None:
                raise ValueError("tree already has a root")
            self.root = nid
        else:
            self.nodes[parent].children.append(nid)
        return nid

    def node(self, nid: int) -> SearchNode:
        return self.nodes[nid]


def solution_path(tree: SearchTree) -> list[int]:
    """Node ids from the root to the first leaf along first children: the
    solution path, since a solver adds each path node before any detour
    there and no detour branches from the solution node."""
    path = [tree.root]
    children = tree.nodes[tree.root].children
    while children:
        path.append(children[0])
        children = tree.nodes[children[0]].children
    return path


# ``extend(tree, branch_id, rng)`` walks one wrong branch from the branch
# point, starting with a sibling step that is not yet one of its children
# (so neither the solution path's step nor an earlier detour's), adds the
# walk's nodes to the tree and returns (their ids, why the branch is dead),
# or None when no wrong branch is left. The observation draws no random
# numbers.
ExtendFn = Callable[[SearchTree, int, random.Random], Optional[tuple]]


def select_detours(tree: SearchTree, path: list, k: int, rng: random.Random,
                   extend_fn: ExtendFn) -> list:
    """Choose ``k`` detours along the solution path, each built by the
    task's ``extend_fn`` and read off as its walk's state texts; returns
    them sorted by resume step, those at one step in selection order.

    Branch points are drawn uniformly without replacement from the path
    positions that can host a detour (the root and the final node are
    excluded: a detour must return to an already-stated positive step, and
    branching after the solution would be vacuous). When k exceeds the
    number of eligible positions, selection continues in further rounds
    that revisit positions; each visit's walk is a new child of its branch
    point, so the next visit there starts differently. Raises
    GenerationError when the tree cannot host k detours (callers resample
    a fresh puzzle).
    """
    if k < 0:
        raise ValueError(f"detour count must be >= 0, got {k}")

    active = set(range(1, len(path) - 1))
    detours: list[Detour] = []
    while len(detours) < k and active:
        for pos in rng.sample(sorted(active), len(active)):
            if len(detours) >= k:
                break
            found = extend_fn(tree, path[pos], rng)
            if found is None:
                active.discard(pos)
                continue
            wrong, observation = found
            detours.append(Detour(
                pos, tuple(tree.nodes[nid].state_text for nid in wrong),
                observation))
    if len(detours) < k:
        raise GenerationError(
            f"tree hosts {len(detours)} of {k} requested detours")
    detours.sort(key=lambda d: d.resume_step)
    return detours


def linearize(tree: SearchTree, path: list, detours: list,
              answer: str) -> ReasoningTrace:
    """The trace of a solve: the state texts of the path after the root as
    its steps, ``detours`` as :func:`select_detours` returns them, and
    ``answer``."""
    return ReasoningTrace(tuple(tree.nodes[nid].state_text for nid in path[1:]),
                          tuple(detours), answer)


def strip_detours(trace: ReasoningTrace) -> ReasoningTrace:
    """The same solve without its detours, which renders identically to a
    trace built with zero detours."""
    return ReasoningTrace(trace.steps, (), trace.answer, dict(trace.meta))


def sample_named(task: str, instance_id: int, seed: int, sample: Callable,
                 rng: random.Random):
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

    Attempt ``a`` draws from ``random.Random(derive_seed(seed, a))``:
    ``sample(rng)`` makes a puzzle, then ``make_trace(puzzle, k, rng)``
    linearizes it. Only a GenerationError from ``make_trace`` (the puzzle
    cannot host ``k`` detours) moves on to attempt ``a + 1``; any other
    exception is a fault and propagates from the attempt that raised it.
    Gives up after ``MAX_TRACE_RETRIES`` attempts with a GenerationError
    naming the task, id, k and seed. A GenerationError from ``sample``
    itself is not retried; :func:`sample_named` re-raises it naming the
    task, id and seed. Returns (puzzle, trace), with the
    instance id stamped into the trace's meta.
    """
    for attempt in range(MAX_TRACE_RETRIES):
        rng = random.Random(derive_seed(seed, attempt))
        puzzle = sample_named(task, instance_id, seed, sample, rng)
        try:
            trace = make_trace(puzzle, k, rng)
        except GenerationError:
            continue
        trace.meta["instance_id"] = instance_id
        return puzzle, trace
    raise GenerationError(
        f"{task} id {instance_id}: no puzzle hosting k={k} backtracks after "
        f"{MAX_TRACE_RETRIES} attempts (seed {seed:#018x})"
    )
