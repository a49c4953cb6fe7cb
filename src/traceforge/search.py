"""Search trees and their linearization into reasoning traces.

A solver produces a :class:`SearchTree` whose nodes are intermediate
states. The trace builder walks the unique root-to-solution path, injects
a controlled number of wrong-branch detours, and verbalizes the result as
an ordered event list. The number of backtrack markers in the rendered
trace equals the number of injected detours exactly, which is the knob the
dataset builders expose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    BacktrackMarker,
    Conclusion,
    GenerationError,
    NoSolutionError,
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
    id: int
    state_text: str
    children: list = field(default_factory=list)  # child ids, DFS order
    is_solution: bool = False
    payload: object = None  # task-specific state snapshot


class SearchTree:
    """Rooted tree built incrementally by solvers.

    Node ids are assigned sequentially; the first node added is the root.
    Child order is meaningful: it is the solver's deterministic visit
    order, and every traversal here respects it.
    """

    def __init__(self) -> None:
        self.nodes: list[SearchNode] = []
        self.root: Optional[int] = None

    def add_node(self, state_text: str, parent: Optional[int] = None,
                 is_solution: bool = False, payload: object = None) -> int:
        nid = len(self.nodes)
        node = SearchNode(nid, state_text, [], is_solution, payload)
        self.nodes.append(node)
        if parent is None:
            if self.root is not None:
                raise ValueError("tree already has a root")
            self.root = nid
        else:
            self.nodes[parent].children.append(nid)
        return nid

    def node(self, nid: int) -> SearchNode:
        return self.nodes[nid]

    def __len__(self) -> int:
        return len(self.nodes)


def solution_path(tree: SearchTree) -> list[int]:
    """Node ids from the root to the first solution in DFS child order."""
    if tree.root is None:
        raise NoSolutionError("empty tree")
    path: list[int] = []

    def dfs(nid: int) -> bool:
        path.append(nid)
        node = tree.nodes[nid]
        if node.is_solution:
            return True
        for child in node.children:
            if dfs(child):
                return True
        path.pop()
        return False

    if not dfs(tree.root):
        raise NoSolutionError("tree contains no solution node")
    return path


@dataclass(frozen=True)
class Detour:
    """One wrong excursion: where it branches, which nodes it visits, and
    the step number the trace returns to afterwards."""

    branch_point: int       # node id on the solution path
    wrong_path: tuple       # node ids walked down the wrong branch
    resume_step: int        # 1-based step index of the branch point


@dataclass
class DetourPlan:
    detours: list
    requested: int

    @property
    def shortfall(self) -> int:
        return self.requested - len(self.detours)

    def exact(self) -> list:
        """The detours, or GenerationError when fewer than requested were
        found (callers resample a fresh puzzle)."""
        if self.shortfall:
            raise GenerationError(
                f"tree hosts {len(self.detours)} of {self.requested} requested detours"
            )
        return self.detours


ExtendFn = Callable[[SearchTree, int, set, random.Random], Optional[list]]


def default_extend(tree: SearchTree, branch_id: int, excluded: set,
                   rng: random.Random) -> Optional[list]:
    """Pick an unused non-solution child and walk down up to
    ``MAX_DETOUR_DEPTH`` nodes.

    Returns the wrong-path node ids, or None when every child of the
    branch point is excluded or a solution.
    """
    node = tree.nodes[branch_id]
    candidates = [c for c in node.children
                  if c not in excluded and not tree.nodes[c].is_solution]
    if not candidates:
        return None
    first = candidates[rng.randrange(len(candidates))]
    wrong = [first]
    cursor = tree.nodes[first]
    while len(wrong) < MAX_DETOUR_DEPTH:
        nxt = [c for c in cursor.children if not tree.nodes[c].is_solution]
        if not nxt:
            break
        chosen = nxt[rng.randrange(len(nxt))]
        wrong.append(chosen)
        cursor = tree.nodes[chosen]
    return wrong


def select_detours(tree: SearchTree, path: list, k: int, rng: random.Random,
                   extend_fn: ExtendFn = default_extend) -> DetourPlan:
    """Choose up to ``k`` detours along the solution path.

    Branch points are drawn uniformly without replacement from the path
    positions that can host a detour (the root and the final node are
    excluded: a detour must return to an already-stated positive step, and
    branching after the solution would be vacuous). When k exceeds the
    number of eligible positions, selection continues in further rounds
    that revisit positions with a different, previously unused wrong
    branch. If the tree cannot host k detours at all, the plan carries all
    it could find and reports the shortfall instead of failing.
    """
    if k < 0:
        raise ValueError(f"detour count must be >= 0, got {k}")

    positions = list(range(1, len(path) - 1))
    used_first: dict[int, set] = {p: set() for p in positions}
    active = set(positions)
    detours: list[Detour] = []
    while len(detours) < k and active:
        round_order = rng.sample(sorted(active), len(active))
        progressed = False
        for pos in round_order:
            if len(detours) >= k:
                break
            if pos not in active:
                continue
            branch_id = path[pos]
            # never re-enter the branch we actually take, nor repeat a
            # wrong branch already used at this position
            excluded = used_first[pos] | {path[pos + 1]}
            wrong = extend_fn(tree, branch_id, excluded, rng)
            if not wrong:
                active.discard(pos)
                continue
            used_first[pos].add(wrong[0])
            detours.append(Detour(branch_id, tuple(wrong), pos))
            progressed = True
        if not progressed:
            break
    detours.sort(key=lambda d: d.resume_step)
    return DetourPlan(detours, k)


def linearize(tree: SearchTree, path: list, detours: list, answer: str,
              observe: Callable[[Detour, list], str]) -> ReasoningTrace:
    """Interleave the solution path with detours into an event sequence.

    Each node's step text is its stored state text. Each detour is
    inserted immediately after its branch-point step: the wrong steps
    continue the numbering, the backtrack marker names the branch-point
    step and carries ``observe(detour, wrong_nodes)``, the task's reason
    for abandoning the branch, and numbering resumes from there. The trace
    ends with ``CONCLUSION`` and carries ``answer``. Malformed detour
    references (branch point not on the path at the stated position, or a
    wrong path that does not start at a child of the branch point) raise
    ValueError.
    """
    by_position: dict[int, list] = {}
    for det in detours:
        if det.resume_step < 1 or det.resume_step >= len(path):
            raise ValueError(f"detour resume step {det.resume_step} is off the path")
        if path[det.resume_step] != det.branch_point:
            raise ValueError("detour branch point does not match the path")
        if not det.wrong_path:
            raise ValueError("detour has an empty wrong path")
        if det.wrong_path[0] not in tree.nodes[det.branch_point].children:
            raise ValueError("detour does not start at a child of its branch point")
        by_position.setdefault(det.resume_step, []).append(det)

    events: list = []
    for pos in range(1, len(path)):
        node = tree.nodes[path[pos]]
        events.append(Step(pos, node.state_text))
        for det in by_position.get(pos, ()):  # noqa: B020 - insertion order
            wrong_nodes = [tree.nodes[i] for i in det.wrong_path]
            widx = pos
            for wnode in wrong_nodes:
                widx += 1
                events.append(Step(widx, wnode.state_text))
            marker = BACKTRACK_TEMPLATE.format(
                observation=observe(det, wrong_nodes), step=pos,
            )
            events.append(BacktrackMarker(pos, marker))
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


def build_with_retries(task: str, instance_id: int, seed: int, k: int,
                       sample: Callable, make_trace: Callable):
    """Sample puzzles until one yields a trace with exactly ``k`` backtracks.

    Attempt ``a`` draws from ``random.Random(derive_seed(seed, a))``:
    ``sample(rng)`` makes a puzzle, then ``make_trace(puzzle, k, rng)``
    linearizes it, raising GenerationError or NoSolutionError when the
    puzzle cannot host ``k`` detours. Gives up after
    ``MAX_TRACE_RETRIES`` attempts with a GenerationError naming the task,
    id, k and seed. Returns (puzzle, trace), with the instance id stamped
    into the trace's meta.
    """
    for attempt in range(MAX_TRACE_RETRIES):
        rng = random.Random(derive_seed(seed, attempt))
        puzzle = sample(rng)
        try:
            trace = make_trace(puzzle, k, rng)
        except (GenerationError, NoSolutionError):
            continue
        trace.meta["instance_id"] = instance_id
        return puzzle, trace
    raise GenerationError(
        f"{task} id {instance_id}: no puzzle hosting k={k} backtracks after "
        f"{MAX_TRACE_RETRIES} attempts (seed {seed:#018x})"
    )
