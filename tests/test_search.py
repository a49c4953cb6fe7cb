import dataclasses
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforge import arc1d, countdown, sudoku
from traceforge.core import (
    BacktrackMarker,
    Conclusion,
    GenerationError,
    ReasoningTrace,
    Step,
    derive_seed,
    render_completion,
)
from traceforge.search import (
    BACKTRACK_TEMPLATE,
    SearchTree,
    build_with_retries,
    linearize,
    select_detours,
    solution_path,
    strip_detours,
)


def chain_tree(depth: int, branching: int = 3):
    """A solution path of ``depth`` nodes below the root, each path node
    able to host ``branching - 1`` detours through :func:`plain_extend`."""
    tree = SearchTree()
    tree.branching = branching
    parent = tree.add_node("root")
    for level in range(depth):
        parent = tree.add_node(f"level {level} option 0.", parent=parent)
    return tree


def plain_extend(tree, branch_id, rng):
    """Add a fresh dead sibling, with one child, below the branch point
    until it has ``branching - 1`` of them; the same reason for every
    detour."""
    option = len(tree.node(branch_id).children)
    if option == tree.branching:
        return None
    wrong = tree.add_node(f"node {branch_id} option {option}.",
                          parent=branch_id)
    deeper = tree.add_node(f"node {branch_id} option {option} deeper.",
                           parent=wrong)
    return [wrong, deeper], "That goes nowhere."


def plain_linearize(tree, path, detours):
    """linearize with a fixed answer."""
    return linearize(tree, path, detours, "42")


# --- trees and paths ---------------------------------------------------------


def test_tree_ids_are_sequential_and_first_is_root():
    tree = SearchTree()
    a = tree.add_node("a")
    b = tree.add_node("b", parent=a)
    c = tree.add_node("c", parent=a)
    assert (a, b, c) == (0, 1, 2)
    assert tree.root == 0
    assert tree.node(a).children == [1, 2]


def test_tree_rejects_second_root():
    tree = SearchTree()
    tree.add_node("a")
    with pytest.raises(ValueError):
        tree.add_node("b")


def test_solution_path_follows_child_order():
    tree = chain_tree(depth=3)
    path = solution_path(tree)
    assert path[0] == tree.root
    assert tree.node(path[-1]).children == []
    assert len(path) == 4
    # each hop must be parent -> child
    for parent, child in zip(path, path[1:]):
        assert child in tree.node(parent).children


def test_solution_path_picks_first_solution_in_dfs_order():
    tree = SearchTree()
    root = tree.add_node("root")
    first = tree.add_node("first", parent=root)
    tree.add_node("first leaf", parent=first)
    tree.add_node("later leaf", parent=root)
    assert solution_path(tree) == [0, 1, 2]


# --- detour selection --------------------------------------------------------


def test_select_zero_detours_is_empty():
    tree = chain_tree(depth=4)
    assert select_detours(tree, solution_path(tree), 0, random.Random(1),
                          plain_extend) == []


def test_select_detours_distinct_positions_first():
    tree = chain_tree(depth=6, branching=4)
    path = solution_path(tree)
    detours = select_detours(tree, path, 5, random.Random(7), plain_extend)
    assert len(detours) == 5
    positions = [d.resume_step for d in detours]
    assert len(set(positions)) == 5  # enough positions, so no reuse yet
    assert all(1 <= p <= len(path) - 2 for p in positions)


def test_select_detours_reuses_positions_when_k_exceeds_path():
    # path positions 1..3 can host, but k=8 needs repeat visits
    tree = chain_tree(depth=5, branching=4)
    path = solution_path(tree)
    detours = select_detours(tree, path, 8, random.Random(3), plain_extend)
    assert len(detours) == 8
    positions = [d.resume_step for d in detours]
    assert max(positions.count(p) for p in set(positions)) > 1
    # reused positions must take different wrong branches
    first_moves = {(d.resume_step, d.wrong_path[0]) for d in detours}
    assert len(first_moves) == 8


def test_select_detours_raises_when_the_tree_hosts_too_few():
    tree = chain_tree(depth=3, branching=2)  # 2 positions x 1 spare branch
    path = solution_path(tree)
    with pytest.raises(GenerationError,
                       match="^tree hosts 2 of 10 requested detours$"):
        select_detours(tree, path, 10, random.Random(5), plain_extend)


def test_select_detours_never_enters_the_solution_branch():
    tree = chain_tree(depth=5, branching=3)
    path = solution_path(tree)
    on_path = set(path)
    for det in select_detours(tree, path, 8, random.Random(11), plain_extend):
        assert det.wrong_path[0] in tree.node(path[det.resume_step]).children
        for nid in det.wrong_path:
            assert nid not in on_path
    assert tree.node(path[-1]).children == []


def test_select_detours_deterministic_for_fixed_rng():
    # selection adds nodes, so each call gets its own tree
    runs = []
    for _ in range(2):
        tree = chain_tree(depth=6, branching=4)
        runs.append(select_detours(tree, solution_path(tree), 6,
                                   random.Random(123), plain_extend))
    assert runs[0] == runs[1]


def test_select_detours_sorted_by_resume_step():
    tree = chain_tree(depth=7, branching=4)
    path = solution_path(tree)
    detours = select_detours(tree, path, 5, random.Random(2), plain_extend)
    steps = [d.resume_step for d in detours]
    assert steps == sorted(steps)


def test_select_detours_rejects_negative_k():
    tree = chain_tree(depth=3)
    with pytest.raises(ValueError):
        select_detours(tree, solution_path(tree), -1, random.Random(0),
                       plain_extend)


@pytest.mark.parametrize("module,solve,extend_for", [
    (countdown, countdown.solve_dfs,
     lambda puzzle: partial(countdown._extend, puzzle.target)),
    (sudoku, sudoku.solve_dfs, lambda puzzle: sudoku._extend),
    (arc1d, arc1d.heuristic_solve, lambda puzzle: arc1d._extend),
], ids=["countdown", "sudoku", "arc1d"])
def test_tree_is_the_solution_path_plus_the_detours_taken(module, solve,
                                                          extend_for):
    hosted = 0
    for i in range(4):
        for k in (1, 5, 10):
            rng = random.Random(derive_seed(97, i))
            puzzle = module.generate(rng)
            tree, _ = solve(puzzle)
            path = solution_path(tree)
            assert len(tree.nodes) == len(path)
            assert tree.node(path[-1]).children == []
            try:
                detours = select_detours(tree, path, k, rng,
                                         extend_for(puzzle))
            except GenerationError:
                continue  # this puzzle hosts fewer than k detours
            hosted += 1
            assert len(tree.nodes) == len(path) + sum(
                len(d.wrong_path) for d in detours)
            # detours come after the path child, so the first-child walk
            # still finds the path
            assert solution_path(tree) == path
    assert hosted >= 8


# --- linearization -----------------------------------------------------------


def test_linearize_numbering_and_markers():
    tree = chain_tree(depth=4, branching=3)
    path = solution_path(tree)
    detours = select_detours(tree, path, 2, random.Random(9), plain_extend)
    trace = plain_linearize(tree, path, detours)
    markers = [ev for ev in trace.events if isinstance(ev, BacktrackMarker)]
    assert len(markers) == 2
    assert trace.backtracks == 2
    assert isinstance(trace.events[-1], Conclusion)
    # each marker names the step right before its detour began
    for marker in markers:
        text = BACKTRACK_TEMPLATE.format(
            observation="That goes nowhere.", step=marker.return_to_step
        )
        assert marker.text == text


def test_linearize_wrong_steps_continue_numbering():
    tree = chain_tree(depth=4, branching=3)
    path = solution_path(tree)
    detour, = select_detours(tree, path, 1, random.Random(4), plain_extend)
    trace = plain_linearize(tree, path, [detour])
    indices = []
    seen_marker = False
    for ev in trace.events:
        if isinstance(ev, BacktrackMarker):
            seen_marker = True
            continue
        if isinstance(ev, Step):
            indices.append(ev.index)
    assert seen_marker
    # numbering climbs 1..pos, pos+1..pos+len(wrong), then back to pos+1
    pos = detour.resume_step
    wrong = len(detour.wrong_path)
    expect = list(range(1, pos + 1))
    expect += list(range(pos + 1, pos + wrong + 1))
    expect += list(range(pos + 1, len(path)))
    assert indices == expect


def test_linearize_rejects_detour_off_the_path():
    tree = chain_tree(depth=3)
    path = solution_path(tree)
    det, = select_detours(tree, path, 1, random.Random(1), plain_extend)
    bad = dataclasses.replace(det, resume_step=len(path))
    with pytest.raises(ValueError):
        plain_linearize(tree, path, [bad])


def test_linearize_rejects_mismatched_branch_point():
    tree = chain_tree(depth=4)
    path = solution_path(tree)
    det, = select_detours(tree, path, 1, random.Random(1), plain_extend)
    other_pos = 1 if det.resume_step != 1 else 2
    bad = dataclasses.replace(det, resume_step=other_pos)
    with pytest.raises(ValueError):
        plain_linearize(tree, path, [bad])


def test_linearize_rejects_detached_wrong_path():
    tree = chain_tree(depth=4)
    path = solution_path(tree)
    det, = select_detours(tree, path, 1, random.Random(1), plain_extend)
    bad = dataclasses.replace(det, wrong_path=(path[-1],))
    with pytest.raises(ValueError):
        plain_linearize(tree, path, [bad])


# --- detour removal ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(2, 8),
    branching=st.integers(2, 4),
    k=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_strip_detours_recovers_plain_rendering(depth, branching, k, seed):
    tree = chain_tree(depth=depth, branching=branching)
    path = solution_path(tree)
    hosted = min(k, (depth - 1) * (branching - 1))  # all the tree can host
    detours = select_detours(tree, path, hosted, random.Random(seed),
                             plain_extend)
    trace = plain_linearize(tree, path, detours)
    plain = plain_linearize(tree, path, [])
    stripped = strip_detours(trace)
    assert stripped.backtracks == 0
    assert render_completion(stripped) == render_completion(plain)


def test_strip_detours_keeps_answer_and_meta():
    tree = chain_tree(depth=4)
    path = solution_path(tree)
    detours = select_detours(tree, path, 2, random.Random(8), plain_extend)
    trace = plain_linearize(tree, path, detours)
    trace.meta["instance_id"] = 5
    stripped = strip_detours(trace)
    assert stripped.answer == trace.answer
    assert stripped.meta["instance_id"] == 5


def test_strip_detours_is_identity_on_clean_traces():
    tree = chain_tree(depth=5)
    path = solution_path(tree)
    trace = plain_linearize(tree, path, [])
    assert strip_detours(trace).events == trace.events


@pytest.mark.parametrize("module", [countdown, arc1d],
                         ids=["countdown", "arc1d"])
@pytest.mark.parametrize("build", [
    lambda m, i, seed: m.build_instance(i, seed),
    lambda m, i, seed: m.build_traced(i, seed, 1),
], ids=["build_instance", "build_traced"])
def test_sampling_failure_names_task_id_and_seed(monkeypatch, module, build):
    seed = derive_seed(12, 3)
    monkeypatch.setattr(module, "MAX_GENERATE_ATTEMPTS", 0)
    task = module.__name__.rsplit(".", 1)[-1]
    with pytest.raises(GenerationError,
                       match=rf"^{task} id 3: .* \(seed {seed:#018x}\)$"):
        build(module, 3, seed)


# --- retries -----------------------------------------------------------------


class RetryStub:
    """``sample`` and ``make_trace`` stand-ins: a puzzle is the attempt
    generator's first draw, and ``make_trace`` raises the queued errors
    one per call, then succeeds."""

    def __init__(self, *errors):
        self.errors = list(errors)
        self.sampled = []

    def sample(self, rng):
        self.sampled.append(rng.random())
        return self.sampled[-1]

    def make_trace(self, puzzle, k, rng):
        if self.errors:
            raise self.errors.pop(0)
        return ReasoningTrace(events=(), answer=str(puzzle), backtracks=k)


def test_generation_error_moves_to_the_next_attempt():
    seed = derive_seed(71, 2)
    stub = RetryStub(GenerationError("too few detours"))
    puzzle, trace = build_with_retries("stub", 2, seed, 3, stub.sample,
                                       stub.make_trace)
    assert stub.sampled == [random.Random(derive_seed(seed, a)).random()
                            for a in (0, 1)]
    assert puzzle == stub.sampled[1]
    assert trace.meta == {"instance_id": 2}


def test_other_errors_propagate_from_the_attempt_that_raised():
    stub = RetryStub(RuntimeError("solver fault"))
    with pytest.raises(RuntimeError, match="^solver fault$"):
        build_with_retries("stub", 0, derive_seed(71, 0), 1, stub.sample,
                           stub.make_trace)
    assert len(stub.sampled) == 1


def test_arc1d_detour_cap_is_raised_not_resampled(monkeypatch):
    calls = []
    make_trace = arc1d.make_trace

    def counted(task, k, rng):
        calls.append(k)
        return make_trace(task, k, rng)

    monkeypatch.setattr(arc1d, "make_trace", counted)
    with pytest.raises(ValueError,
                       match="^at most 16 detours are possible, got 17$"):
        arc1d.build_traced(0, derive_seed(71, 0), 17)
    assert calls == [17]
