import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforge.core import BacktrackMarker, Conclusion, NoSolutionError, Step, render_completion
from traceforge.search import (
    BACKTRACK_TEMPLATE,
    SearchTree,
    linearize,
    select_detours,
    solution_path,
    strip_detours,
)


def chain_tree(depth: int, branching: int = 3):
    """A solution path of ``depth`` nodes below the root, each path node
    also carrying ``branching - 1`` dead siblings with one child each."""
    tree = SearchTree()
    parent = tree.add_node("root")
    for level in range(depth):
        solution_child = None
        for b in range(branching):
            on_path = b == 0
            child = tree.add_node(
                f"level {level} option {b}.",
                parent=parent,
                is_solution=(on_path and level == depth - 1),
            )
            if on_path:
                solution_child = child
            else:
                tree.add_node(f"level {level} option {b} deeper.", parent=child)
        parent = solution_child
    return tree


def plain_linearize(tree, path, detours):
    """linearize with a fixed answer and the same reason for every detour."""
    return linearize(tree, path, detours, "42",
                     lambda detour, wrong_nodes: "That goes nowhere.")


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
    assert tree.node(path[-1]).is_solution
    assert len(path) == 4
    # each hop must be parent -> child
    for parent, child in zip(path, path[1:]):
        assert child in tree.node(parent).children


def test_solution_path_without_solution_raises():
    tree = SearchTree()
    root = tree.add_node("root")
    tree.add_node("dead", parent=root)
    with pytest.raises(NoSolutionError):
        solution_path(tree)


def test_solution_path_picks_first_solution_in_dfs_order():
    tree = SearchTree()
    root = tree.add_node("root")
    first = tree.add_node("first", parent=root)
    tree.add_node("early win", parent=first, is_solution=True)
    tree.add_node("late win", parent=root, is_solution=True)
    assert solution_path(tree) == [0, 1, 2]


# --- detour selection --------------------------------------------------------


def test_select_zero_detours_is_empty():
    tree = chain_tree(depth=4)
    plan = select_detours(tree, solution_path(tree), 0, random.Random(1))
    assert plan.detours == []
    assert plan.shortfall == 0


def test_select_detours_distinct_positions_first():
    tree = chain_tree(depth=6, branching=4)
    path = solution_path(tree)
    plan = select_detours(tree, path, 5, random.Random(7))
    assert len(plan.detours) == 5
    positions = [d.resume_step for d in plan.detours]
    assert len(set(positions)) == 5  # enough positions, so no reuse yet
    assert all(1 <= p <= len(path) - 2 for p in positions)


def test_select_detours_reuses_positions_when_k_exceeds_path():
    # path positions 1..3 can host, but k=8 needs repeat visits
    tree = chain_tree(depth=5, branching=4)
    path = solution_path(tree)
    plan = select_detours(tree, path, 8, random.Random(3))
    assert len(plan.detours) == 8
    positions = [d.resume_step for d in plan.detours]
    assert max(positions.count(p) for p in set(positions)) > 1
    # reused positions must take different wrong branches
    first_moves = {(d.resume_step, d.wrong_path[0]) for d in plan.detours}
    assert len(first_moves) == 8


def test_select_detours_reports_shortfall_instead_of_raising():
    tree = chain_tree(depth=3, branching=2)  # 2 positions x 1 spare branch
    path = solution_path(tree)
    plan = select_detours(tree, path, 10, random.Random(5))
    assert plan.requested == 10
    assert len(plan.detours) == 2
    assert plan.shortfall == 8


def test_select_detours_never_enters_the_solution_branch():
    tree = chain_tree(depth=5, branching=3)
    path = solution_path(tree)
    on_path = set(path)
    plan = select_detours(tree, path, 8, random.Random(11))
    for det in plan.detours:
        assert det.branch_point in on_path
        for nid in det.wrong_path:
            assert nid not in on_path
            assert not tree.node(nid).is_solution


def test_select_detours_deterministic_for_fixed_rng():
    tree = chain_tree(depth=6, branching=4)
    path = solution_path(tree)
    a = select_detours(tree, path, 6, random.Random(123))
    b = select_detours(tree, path, 6, random.Random(123))
    assert a.detours == b.detours


def test_select_detours_sorted_by_resume_step():
    tree = chain_tree(depth=7, branching=4)
    path = solution_path(tree)
    plan = select_detours(tree, path, 5, random.Random(2))
    steps = [d.resume_step for d in plan.detours]
    assert steps == sorted(steps)


def test_select_detours_rejects_negative_k():
    tree = chain_tree(depth=3)
    with pytest.raises(ValueError):
        select_detours(tree, solution_path(tree), -1, random.Random(0))


# --- linearization -----------------------------------------------------------


def test_linearize_numbering_and_markers():
    tree = chain_tree(depth=4, branching=3)
    path = solution_path(tree)
    plan = select_detours(tree, path, 2, random.Random(9))
    trace = plain_linearize(tree, path, plan.detours)
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
    plan = select_detours(tree, path, 1, random.Random(4))
    trace = plain_linearize(tree, path, plan.detours)
    detour = plan.detours[0]
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
    plan = select_detours(tree, path, 1, random.Random(1))
    det = plan.detours[0]
    bad = type(det)(det.branch_point, det.wrong_path, len(path))
    with pytest.raises(ValueError):
        plain_linearize(tree, path, [bad])


def test_linearize_rejects_mismatched_branch_point():
    tree = chain_tree(depth=4)
    path = solution_path(tree)
    plan = select_detours(tree, path, 1, random.Random(1))
    det = plan.detours[0]
    other_pos = 1 if det.resume_step != 1 else 2
    bad = type(det)(det.branch_point, det.wrong_path, other_pos)
    with pytest.raises(ValueError):
        plain_linearize(tree, path, [bad])


def test_linearize_rejects_detached_wrong_path():
    tree = chain_tree(depth=4)
    path = solution_path(tree)
    plan = select_detours(tree, path, 1, random.Random(1))
    det = plan.detours[0]
    bad = type(det)(det.branch_point, (path[-1],), det.resume_step)
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
    plan = select_detours(tree, path, k, random.Random(seed))
    trace = plain_linearize(tree, path, plan.detours)
    plain = plain_linearize(tree, path, [])
    stripped = strip_detours(trace)
    assert stripped.backtracks == 0
    assert render_completion(stripped) == render_completion(plain)


def test_strip_detours_keeps_answer_and_meta():
    tree = chain_tree(depth=4)
    path = solution_path(tree)
    plan = select_detours(tree, path, 2, random.Random(8))
    trace = plain_linearize(tree, path, plan.detours)
    trace.meta["instance_id"] = 5
    stripped = strip_detours(trace)
    assert stripped.answer == trace.answer
    assert stripped.meta["instance_id"] == 5


def test_strip_detours_is_identity_on_clean_traces():
    tree = chain_tree(depth=5)
    path = solution_path(tree)
    trace = plain_linearize(tree, path, [])
    assert strip_detours(trace).events == trace.events
