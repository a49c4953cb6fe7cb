"""Search trees and their linearization into reasoning traces.

A solver produces a :class:`SearchTree` that holds only its
root-to-solution path, with intermediate states as nodes, so each path
node's first child is the next path step. The trace builder injects a
controlled number of wrong-branch detours, each of which adds its own
nodes when the task's extend walks it off a path node, so a tree holds
the path plus the detours taken and nothing else. The result is
verbalized as an ordered event list. The number of backtrack markers in
the rendered trace equals the number of injected detours exactly, which is
the knob the dataset builders expose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    BacktrackMarker,
    Conclusion,
    GenerationError,
    ReasoningTrace,
    Step,
    derive_seed,
)

# Opening of every backtrack; counting it recovers a completion's
# backtrack count when the trace itself is not at hand.
MARKER_PHRASE = "Wait, this doesn't lead to the correct solution."

# Template for every backtrack. The observation sentence is task-specific;
# the surrounding wording is fixed so traces are uniform across tasks.
BACKTRACK_TEMPLATE = (
    MARKER_PHRASE + " {observation} "
    "Let me go back to step {step} and keep thinking from there."
)

# Closing sentence of every trace.
CONCLUSION = "This matches the problem statement. This is the solution."

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


@dataclass(frozen=True)
class Detour:
    """One wrong excursion: which nodes it visits, the step number of its
    branch point (the trace returns there afterwards), and why it is
    dead."""

    wrong_path: tuple       # node ids walked down the wrong branch
    resume_step: int        # 1-based path index of the branch point
    observation: str        # the task's reason for abandoning the branch


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
    task's ``extend_fn``; returns them sorted by resume step.

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
            detours.append(Detour(tuple(wrong), pos, observation))
    if len(detours) < k:
        raise GenerationError(
            f"tree hosts {len(detours)} of {k} requested detours")
    detours.sort(key=lambda d: d.resume_step)
    return detours


def linearize(tree: SearchTree, path: list, detours: list,
              answer: str) -> ReasoningTrace:
    """Interleave the solution path with detours into an event sequence.

    Each node's step text is its stored state text. Each detour is
    inserted immediately after its branch-point step: the wrong steps
    continue the numbering, the backtrack marker names the branch-point
    step and carries the detour's observation, and numbering resumes from
    there. The trace ends with ``CONCLUSION`` and carries ``answer``.
    Malformed detour references (a resume step off the path, or a wrong
    path that does not start at a child of the path node at that step)
    raise ValueError.
    """
    by_position: dict[int, list] = {}
    for det in detours:
        if det.resume_step < 1 or det.resume_step >= len(path):
            raise ValueError(f"detour resume step {det.resume_step} is off the path")
        if not det.wrong_path:
            raise ValueError("detour has an empty wrong path")
        if det.wrong_path[0] not in tree.nodes[path[det.resume_step]].children:
            raise ValueError("detour does not start at a child of its branch point")
        by_position.setdefault(det.resume_step, []).append(det)

    events: list = []
    for pos in range(1, len(path)):
        events.append(Step(pos, tree.nodes[path[pos]].state_text))
        for det in by_position.get(pos, ()):  # noqa: B020 - insertion order
            for widx, nid in enumerate(det.wrong_path, start=pos + 1):
                events.append(Step(widx, tree.nodes[nid].state_text))
            events.append(BacktrackMarker(pos, BACKTRACK_TEMPLATE.format(
                observation=det.observation, step=pos)))
    events.append(Conclusion(CONCLUSION))
    return ReasoningTrace(
        events=tuple(events),
        answer=answer,
        backtracks=len(detours),
    )


def strip_detours(trace: ReasoningTrace) -> ReasoningTrace:
    """Remove every detour, recovering the direct solution trace.

    Replays the event list with a stack: a backtrack marker pops all steps
    numbered above its return target, and the marker itself is dropped.
    The result renders identically to a trace built with zero detours.
    """
    kept: list = []
    for ev in trace.events:
        if isinstance(ev, BacktrackMarker):
            while kept and isinstance(kept[-1], Step) and kept[-1].index > ev.return_to_step:
                kept.pop()
        else:
            kept.append(ev)
    return ReasoningTrace(
        events=tuple(kept),
        answer=trace.answer,
        backtracks=0,
        meta=dict(trace.meta),
    )


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
