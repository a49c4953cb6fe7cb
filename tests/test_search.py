import copy
import dataclasses
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforge import arc1d, countdown, sudoku
from traceforge.core import (
    BACKTRACK_TEMPLATE,
    CONCLUSION,
    MARKER_PHRASE,
    GenerationError,
    ReasoningTrace,
    Rng,
    derive_seed,
    render_completion,
    render_think_body,
)
from traceforge.search import (
    SearchNode,
    build_with_retries,
    linearize,
    select_detours,
    solution_path,
    strip_detours,
)


def chain_nodes(depth: int, branching: int = 3):
    """A solution path of ``depth`` nodes below the root, each path node
    able to host ``branching - 1`` detours through :func:`plain_extend`.
    A node's payload is (its position, ``branching``); every path step is
    option 0 at its level, so its key is 0."""
    return [SearchNode("root", (0, branching))] + [
        SearchNode(f"level {level} option 0.", (level + 1, branching), 0)
        for level in range(depth)]


def plain_extend(state, taken, rng):
    """A fresh dead option, with one deeper step, at the branch point
    until ``branching - 1`` of them are taken; the same reason for every
    detour. ``taken`` holds option 0 and the earlier detours' options."""
    position, branching = state
    option = len(taken)
    if option == branching:
        return None
    return option, [f"node {position} option {option}.",
                    f"node {position} option {option} deeper."], \
        "That goes nowhere."


def plain_linearize(nodes, path, detours):
    """linearize with a fixed answer."""
    return linearize(nodes, path, detours, "42")


# --- paths -------------------------------------------------------------------


def test_solution_path_follows_child_order():
    nodes = chain_nodes(depth=3)
    path = solution_path(nodes)
    assert path == [0, 1, 2, 3]
    assert [nodes[nid].state_text for nid in path[1:]] == [
        f"level {level} option 0." for level in range(3)]


# --- detour selection --------------------------------------------------------


def test_select_zero_detours_is_empty():
    nodes = chain_nodes(depth=4)
    assert select_detours(nodes, solution_path(nodes), 0, random.Random(1),
                          plain_extend) == []


def test_select_detours_distinct_positions_first():
    nodes = chain_nodes(depth=6, branching=4)
    path = solution_path(nodes)
    detours = select_detours(nodes, path, 5, random.Random(7), plain_extend)
    assert len(detours) == 5
    positions = [d.resume_step for d in detours]
    assert len(set(positions)) == 5  # enough positions, so no reuse yet
    assert all(1 <= p <= len(path) - 2 for p in positions)


def test_select_detours_reuses_positions_when_k_exceeds_path():
    # path positions 1..3 can host, but k=8 needs repeat visits
    nodes = chain_nodes(depth=5, branching=4)
    path = solution_path(nodes)
    detours = select_detours(nodes, path, 8, random.Random(3), plain_extend)
    assert len(detours) == 8
    positions = [d.resume_step for d in detours]
    assert max(positions.count(p) for p in set(positions)) > 1
    # reused positions must take different wrong branches
    first_moves = {(d.resume_step, d.steps[0]) for d in detours}
    assert len(first_moves) == 8


def test_select_detours_raises_when_the_path_hosts_too_few():
    nodes = chain_nodes(depth=3, branching=2)  # 2 positions x 1 spare branch
    path = solution_path(nodes)
    with pytest.raises(GenerationError,
                       match="^path hosts 2 of 10 requested detours$"):
        select_detours(nodes, path, 10, random.Random(5), plain_extend)


def test_select_detours_never_enters_the_solution_branch():
    nodes = chain_nodes(depth=5, branching=3)
    path = solution_path(nodes)
    solved = copy.deepcopy(nodes)
    branched = []

    def extend(state, taken, rng):
        branched.append(state[0])
        return plain_extend(state, taken, rng)

    detours = select_detours(nodes, path, 8, random.Random(11), extend)
    # every detour branches from a path node other than the root and the
    # solution, and the solve itself is left as it was
    assert set(branched) <= set(path[1:-1])
    assert {d.resume_step for d in detours} <= set(path[1:-1])
    assert nodes == solved


def test_select_detours_deterministic_for_fixed_rng():
    runs = []
    for _ in range(2):
        nodes = chain_nodes(depth=6, branching=4)
        runs.append(select_detours(nodes, solution_path(nodes), 6,
                                   random.Random(123), plain_extend))
    assert runs[0] == runs[1]


def test_select_detours_sorted_by_resume_step():
    nodes = chain_nodes(depth=7, branching=4)
    path = solution_path(nodes)
    detours = select_detours(nodes, path, 5, random.Random(2), plain_extend)
    steps = [d.resume_step for d in detours]
    assert steps == sorted(steps)


def test_select_detours_rejects_negative_k():
    nodes = chain_nodes(depth=3)
    with pytest.raises(ValueError):
        select_detours(nodes, solution_path(nodes), -1, random.Random(0),
                       plain_extend)


# each traced task's generator, solver and extend, bound to a puzzle
traced_tasks = pytest.mark.parametrize("module,solve,extend_for", [
    (countdown, countdown.solve_dfs,
     lambda puzzle: partial(countdown._extend, puzzle.target)),
    (sudoku, sudoku.solve_dfs, lambda puzzle: sudoku._extend),
    (arc1d, arc1d.heuristic_solve, lambda puzzle: arc1d._extend),
], ids=["countdown", "sudoku", "arc1d"])


@traced_tasks
def test_tree_is_the_solution_path_plus_the_detours_taken(module, solve,
                                                          extend_for):
    # a solve is its path alone, and a detour is text that leaves it be
    hosted = 0
    for i in range(4):
        for k in (1, 5, 10):
            rng = Rng(derive_seed(97, i))
            puzzle = module.generate(rng)
            nodes, _ = solve(puzzle)
            path = solution_path(nodes)
            assert path == list(range(len(nodes)))
            assert nodes[0].key is None
            solved = copy.deepcopy(nodes)
            try:
                detours = select_detours(nodes, path, k, rng,
                                         extend_for(puzzle))
            except GenerationError:
                continue  # this puzzle hosts fewer than k detours
            hosted += 1
            assert len(detours) == k
            assert all(isinstance(step, str) for d in detours
                       for step in d.steps)
            assert nodes == solved
    assert hosted >= 8


@traced_tasks
def test_extend_keys_avoid_taken_and_never_repeat(module, solve, extend_for):
    # every first key extend returns lies outside the set it was given,
    # that set holds the path's own next key, and the keys taken at one
    # position are distinct
    hosted = 0
    for i in range(6):
        for k in (1, 5, 10):
            rng = Rng(derive_seed(31, i))
            puzzle = module.generate(rng)
            nodes, _ = solve(puzzle)
            path = solution_path(nodes)
            solved = copy.deepcopy(nodes)
            extend = extend_for(puzzle)
            keys = {}

            def wrapped(state, taken, rng):
                given = set(taken)
                found = extend(state, taken, rng)
                if found is None:
                    return None
                pos, = [p for p in path[1:-1] if nodes[p].payload is state]
                assert nodes[pos + 1].key in given
                assert found[0] not in given
                keys.setdefault(pos, []).append(found[0])
                return found

            try:
                detours = select_detours(nodes, path, k, rng, wrapped)
            except GenerationError:
                continue  # this puzzle hosts fewer than k detours
            hosted += 1
            assert sum(map(len, keys.values())) == len(detours) == k
            for taken in keys.values():
                assert all(a != b for n, a in enumerate(taken)
                           for b in taken[n + 1:])
            assert nodes == solved
    assert hosted >= 9


# --- linearization -----------------------------------------------------------


def test_linearize_numbering_and_markers():
    nodes = chain_nodes(depth=4, branching=3)
    path = solution_path(nodes)
    detours = select_detours(nodes, path, 2, random.Random(9), plain_extend)
    trace = plain_linearize(nodes, path, detours)
    assert trace.steps == tuple(nodes[nid].state_text for nid in path[1:])
    assert trace.backtracks == 2
    body = render_think_body(trace)
    assert body.count(MARKER_PHRASE) == 2
    assert body.endswith(CONCLUSION)
    # each marker names the step right before its detour began and ends
    # its line
    for det, line in zip(trace.detours, body.split("\n")):
        assert line.endswith(BACKTRACK_TEMPLATE.format(
            observation="That goes nowhere.", step=det.resume_step))


def test_linearize_wrong_steps_continue_numbering():
    nodes = chain_nodes(depth=4, branching=3)
    path = solution_path(nodes)
    detour, = select_detours(nodes, path, 1, random.Random(4), plain_extend)
    trace = plain_linearize(nodes, path, [detour])
    body = render_think_body(trace)
    assert MARKER_PHRASE in body
    indices = [int(n) for n in re.findall(r"Step (\d+): ", body)]
    # numbering climbs 1..pos, pos+1..pos+len(wrong), then back to pos+1
    pos = detour.resume_step
    wrong = len(detour.steps)
    expect = list(range(1, pos + 1))
    expect += list(range(pos + 1, pos + wrong + 1))
    expect += list(range(pos + 1, len(path)))
    assert indices == expect


def test_linearize_rejects_detour_off_the_path():
    # the renderer is where a detour meets the steps it resumes from
    nodes = chain_nodes(depth=3)
    path = solution_path(nodes)
    det, = select_detours(nodes, path, 1, random.Random(1), plain_extend)
    bad = dataclasses.replace(det, resume_step=len(path))
    with pytest.raises(ValueError, match="off the 3 steps or out of order"):
        render_completion(plain_linearize(nodes, path, [bad]))


# --- detour removal ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(2, 8),
    branching=st.integers(2, 4),
    k=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_strip_detours_recovers_plain_rendering(depth, branching, k, seed):
    nodes = chain_nodes(depth=depth, branching=branching)
    path = solution_path(nodes)
    hosted = min(k, (depth - 1) * (branching - 1))  # all the path can host
    detours = select_detours(nodes, path, hosted, random.Random(seed),
                             plain_extend)
    trace = plain_linearize(nodes, path, detours)
    plain = plain_linearize(nodes, path, [])
    stripped = strip_detours(trace)
    assert stripped.backtracks == 0
    assert render_completion(stripped) == render_completion(plain)


def test_strip_detours_keeps_answer_and_meta():
    nodes = chain_nodes(depth=4)
    path = solution_path(nodes)
    detours = select_detours(nodes, path, 2, random.Random(8), plain_extend)
    trace = plain_linearize(nodes, path, detours)
    trace.meta["instance_id"] = 5
    stripped = strip_detours(trace)
    assert stripped.answer == trace.answer
    assert stripped.meta["instance_id"] == 5


def test_strip_detours_is_identity_on_clean_traces():
    nodes = chain_nodes(depth=5)
    path = solution_path(nodes)
    trace = plain_linearize(nodes, path, [])
    assert strip_detours(trace) == trace


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
        return ReasoningTrace(steps=(), detours=(), answer=str(puzzle))


def test_generation_error_moves_to_the_next_attempt():
    seed = derive_seed(71, 2)
    stub = RetryStub(GenerationError("too few detours"))
    puzzle, trace = build_with_retries("stub", 2, seed, 3, stub.sample,
                                       stub.make_trace)
    assert stub.sampled == [Rng(derive_seed(seed, a)).random()
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
