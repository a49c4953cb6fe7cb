import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import countdown_solvable
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforge import countdown as cd
from traceforge import search
from traceforge.core import (
    BacktrackMarker,
    GenerationError,
    NoSolutionError,
    ProblemInstance,
    Step,
    TaskKind,
    derive_seed,
    render_completion,
)
from traceforge.search import solution_path


def sample_puzzles(n, master=4242):
    for i in range(n):
        rng = random.Random(derive_seed(master, i))
        yield cd.generate(rng)


def instance_of(puzzle):
    """A bare instance carrying what ``cd.check`` reads."""
    return ProblemInstance(
        id=0, task=TaskKind.COUNTDOWN, prompt="", ground_truth="", seed=0,
        meta={"numbers": list(puzzle.numbers), "target": puzzle.target},
    )


def correct(puzzle, text):
    parseable, right = cd.check(instance_of(puzzle), text)
    return parseable and right


# --- generation --------------------------------------------------------------


def test_generate_respects_ranges():
    for puzzle in sample_puzzles(50):
        assert cd.COUNT_RANGE[0] <= len(puzzle.numbers) <= cd.COUNT_RANGE[1]
        assert all(cd.VALUE_RANGE[0] <= v <= cd.VALUE_RANGE[1]
                   for v in puzzle.numbers)
        assert cd.TARGET_RANGE[0] <= puzzle.target <= cd.TARGET_RANGE[1]
        assert puzzle.target not in puzzle.numbers


def test_generated_puzzles_solvable_by_independent_closure():
    for puzzle in sample_puzzles(40):
        assert countdown_solvable(puzzle.numbers, puzzle.target)


def test_generate_deterministic():
    a = cd.generate(random.Random(99))
    b = cd.generate(random.Random(99))
    assert a == b


def test_golden_instance_frozen():
    inst = cd.build_instance(0, 12345)
    assert inst.meta["numbers"] == [95, 53, 75, 65, 22, 19]
    assert inst.meta["target"] == 167
    assert inst.ground_truth == "19 + 95 + 53"
    assert "[95, 53, 75, 65, 22, 19]" in inst.prompt
    assert "167" in inst.prompt


# --- move enumeration --------------------------------------------------------


def test_legal_moves_order_and_orientation():
    moves = list(cd.legal_moves([8, 2, 5]))
    pairs = [(m[0], m[1]) for m in moves]
    assert pairs == sorted(pairs)  # lexicographic pair order
    by_pair = {}
    for m in moves:
        by_pair.setdefault((m[0], m[1]), []).append(m[2])
    assert by_pair[(0, 1)] == ["+", "-", "*", "/"]
    sub = next(m for m in moves if m[2] == "-" and (m[0], m[1]) == (0, 1))
    assert (sub[3], sub[4], sub[5], sub[6]) == (8, 2, 6, False)
    div = next(m for m in moves if m[2] == "/" and (m[0], m[1]) == (0, 1))
    assert (div[3], div[4], div[5]) == (8, 2, 4)


def test_legal_moves_swapped_orientation():
    moves = list(cd.legal_moves([2, 8]))
    sub = next(m for m in moves if m[2] == "-")
    assert (sub[3], sub[4], sub[5], sub[6]) == (8, 2, 6, True)
    div = next(m for m in moves if m[2] == "/")
    assert (div[3], div[4], div[5], div[6]) == (8, 2, 4, True)


def test_legal_moves_equal_values_skip_subtraction():
    ops = [m[2] for m in cd.legal_moves([6, 6])]
    assert "-" not in ops  # zero is never a legal value
    assert "/" in ops


def test_legal_moves_results_positive_integers():
    rng = random.Random(1)
    for _ in range(200):
        vals = [rng.randint(1, 60) for _ in range(4)]
        for m in cd.legal_moves(vals):
            assert m[5] >= 1
            if m[2] == "/":
                assert m[3] % m[4] == 0


# --- solving -----------------------------------------------------------------


def reference_first_solution(values, target):
    """First solution in declared move order, straight off legal_moves."""
    dead = set()
    steps = []

    def dfs(vals):
        key = tuple(sorted(vals))
        if key in dead:
            return False
        for move in cd.legal_moves(vals):
            if move[5] == target:
                steps.append(move)
                return True
            if len(vals) > 2:
                steps.append(move)
                if dfs(cd._apply_move(vals, move)):
                    return True
                steps.pop()
        dead.add(key)
        return False

    if dfs(list(values)):
        return steps
    return None


def test_find_solution_matches_reference_enumeration():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randrange(4, 7)
        vals = [rng.randrange(1, 100) for _ in range(n)]
        target = rng.randrange(10, 1000)
        fast = cd._find_solution(vals, target, 5_000_000)
        assert fast == reference_first_solution(vals, target)


def test_solve_dfs_answer_is_verified_solution():
    for puzzle in sample_puzzles(30):
        _, expr = cd.solve_dfs(puzzle)
        assert correct(puzzle, expr.render(puzzle.numbers))


def test_solve_dfs_tree_has_full_sibling_level():
    puzzle = next(iter(sample_puzzles(1)))
    tree, _ = cd.solve_dfs(puzzle)
    path = solution_path(tree)
    values = list(puzzle.numbers)
    for parent, taken in zip(path, path[1:]):
        moves = list(cd.legal_moves(values))
        children = tree.node(parent).children
        assert len(children) == len(moves)
        texts = [f"{m[3]} {m[2]} {m[4]} = {m[5]}." for m in moves]
        assert [tree.node(c).state_text for c in children] == texts
        idx = children.index(taken)
        values = cd._apply_move(values, moves[idx])


def test_solve_dfs_unreachable_raises():
    with pytest.raises(NoSolutionError):
        cd.solve_dfs(cd.CountdownPuzzle((2, 2), 9))


def test_solve_dfs_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(cd, "NODE_BUDGET", 1)
    with pytest.raises(NoSolutionError):
        cd.solve_dfs(cd.CountdownPuzzle((2, 3, 4, 30), 29))


def test_solve_dfs_target_among_numbers_is_leaf_answer():
    tree, expr = cd.solve_dfs(cd.CountdownPuzzle((5, 7), 7))
    assert tree.node(tree.root).is_solution
    assert expr.render((5, 7)) == "7"


def test_reachable_agrees_with_closure_oracle():
    rng = random.Random(77)
    for _ in range(120):
        vals = [rng.randint(1, 30) for _ in range(rng.randint(2, 4))]
        target = rng.randint(2, 120)
        assert cd.reachable(vals, target) == countdown_solvable(vals, target)


# --- expression rendering and parsing ----------------------------------------


def test_render_minimal_parentheses():
    nums = (2, 3, 4)
    e = cd.ArithExpr.combine(
        "*",
        cd.ArithExpr.combine("+", cd.ArithExpr.leaf(0), cd.ArithExpr.leaf(1)),
        cd.ArithExpr.leaf(2),
    )
    assert e.render(nums) == "(2 + 3) * 4"
    e2 = cd.ArithExpr.combine(
        "+",
        cd.ArithExpr.combine("*", cd.ArithExpr.leaf(0), cd.ArithExpr.leaf(1)),
        cd.ArithExpr.leaf(2),
    )
    assert e2.render(nums) == "2 * 3 + 4"


def test_render_right_associative_parentheses():
    nums = (10, 4, 2)
    e = cd.ArithExpr.combine(
        "-",
        cd.ArithExpr.leaf(0),
        cd.ArithExpr.combine("-", cd.ArithExpr.leaf(1), cd.ArithExpr.leaf(2)),
    )
    assert e.render(nums) == "10 - (4 - 2)"
    assert cd.parse_answer(e.render(nums))[0] == 8


def test_parse_answer_value_and_multiset():
    value, used = cd.parse_answer("19 + 95 + 53")
    assert value == 167
    assert used == Counter({19: 1, 95: 1, 53: 1})


def test_parse_answer_fraction_intermediates_allowed():
    value, _ = cd.parse_answer("8 / 3 * 3")
    assert value == 8


@pytest.mark.parametrize(
    "text",
    [
        "51 - 23 = 28",
        "",
        "   ",
        "x + 2",
        "-5 + 7",
        "2 ** 3",
        "3.5 + 1",
        "1 / 0",
        "(1, 2)",
        "__import__('os')",
        "True + 1",
        "2 + ",
        "1_0 + 3",
        "0x10 + 3",
    ],
)
def test_parse_answer_rejects(text):
    assert cd.parse_answer(text) is None


def test_verify_checks_multiset_usage():
    puzzle = cd.CountdownPuzzle((5, 5, 3), 13)
    assert cd.check(instance_of(puzzle), "5 + 5 + 3") == (True, True)
    # third 5 not available
    assert cd.check(instance_of(puzzle), "5 + 5 + 5 - 2") == (True, False)
    # no 4 in the puzzle
    assert cd.check(instance_of(puzzle), "5 + 5 + 4") == (True, False)
    # wrong value
    assert cd.check(instance_of(puzzle), "5 + 5 + 2") == (True, False)
    assert cd.check(instance_of(puzzle), "5 + 5 = 10") == (False, False)


def test_check_over_count_answer_keeps_its_parse_label():
    puzzle = cd.CountdownPuzzle((1, 2, 3, 4), 15)
    # one number more than the puzzle offers: an expression, so wrong
    assert cd.check(instance_of(puzzle), "1+2+3+4+5") == (True, False)
    # the same count with an unclosed parenthesis is no expression
    assert cd.check(instance_of(puzzle), "(1+2+3+4+5") == (False, False)


@pytest.mark.parametrize(
    "text",
    [
        "+".join(["1"] * (cd.MAX_ANSWER_OPERATORS + 2)),
        "+".join(["1"] * 5000),
        "-" * 10_000 + "1",
    ],
    ids=["over-cap", "5000-term", "unary-chain"],
)
def test_parse_answer_rejects_long_input(text):
    assert cd.parse_answer(text) is None


def test_parse_answer_accepts_up_to_the_cap():
    terms = cd.MAX_ANSWER_OPERATORS + 1
    value, used = cd.parse_answer("+".join(["1"] * terms))
    assert value == terms
    assert used == {1: terms}


def test_verify_allows_subset_of_numbers():
    puzzle = cd.CountdownPuzzle((9, 4, 7, 2), 13)
    assert correct(puzzle, "9 + 4")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_witness_render_parse_roundtrip(seed):
    puzzle = cd.generate(random.Random(seed))
    text = cd.solve_dfs(puzzle)[1].render(puzzle.numbers)
    parsed = cd.parse_answer(text)
    assert parsed is not None
    value, used = parsed
    assert value == puzzle.target
    available = Counter(puzzle.numbers)
    assert all(available[v] >= c for v, c in used.items())


# --- traces ------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 5, 10])
def test_trace_marker_count_is_exact(k):
    inst, trace = cd.build_traced(3, derive_seed(11, 3), k)
    markers = [ev for ev in trace.events if isinstance(ev, BacktrackMarker)]
    assert len(markers) == k
    assert trace.backtracks == k


def test_trace_answer_verifies():
    for i in range(10):
        inst, trace = cd.build_traced(i, derive_seed(21, i), 5)
        assert cd.check(inst, trace.answer) == (True, True)
        assert inst.ground_truth == trace.answer


def test_trace_exactly_one_step_reaches_target():
    for i in range(8):
        inst, trace = cd.build_traced(i, derive_seed(33, i), 5)
        target = inst.meta["target"]
        hits = [ev for ev in trace.events
                if isinstance(ev, Step) and ev.text.endswith(f"= {target}.")]
        assert len(hits) == 1


def test_trace_detour_end_states_are_dead():
    # every value multiset left after a wrong branch must be unable to
    # reach the target, per the independent closure oracle
    for i in range(6):
        rng = random.Random(derive_seed(55, i))
        puzzle = None
        while puzzle is None:
            candidate = cd.generate(rng)
            try:
                trace = cd.make_trace(candidate, 3, rng)
                puzzle = candidate
            except (cd.GenerationError, NoSolutionError):
                continue
        tree, _ = cd.solve_dfs(puzzle)
        path = solution_path(tree)
        plan = cd.select_detours(
            tree, path, 3, random.Random(derive_seed(55, i)),
            extend_fn=cd._make_extend(puzzle.target),
        )
        for det in plan.detours:
            end_values = tree.node(det.wrong_path[-1]).payload
            assert not countdown_solvable(end_values, puzzle.target)
            for nid in det.wrong_path:
                assert puzzle.target not in tree.node(nid).payload


def test_strip_detours_matches_plain_build():
    for k in (1, 5, 10):
        inst, trace = cd.build_traced(0, derive_seed(66, 0), k)
        puzzle = cd.puzzle_from_instance(inst)
        plain = cd.make_trace(puzzle, 0, random.Random(0))
        from traceforge.search import strip_detours

        assert render_completion(strip_detours(trace)) == render_completion(plain)


def test_build_traced_deterministic():
    a = cd.build_traced(4, derive_seed(9, 4), 5)
    b = cd.build_traced(4, derive_seed(9, 4), 5)
    assert a[0] == b[0]
    assert render_completion(a[1]) == render_completion(b[1])


def test_trace_completion_is_well_formed():
    from traceforge.core import extract_tags

    _, trace = cd.build_traced(1, derive_seed(13, 1), 1)
    tags = extract_tags(render_completion(trace))
    assert tags.well_formed
    assert tags.answer == trace.answer


def test_retry_exhaustion_names_task_id_k_and_seed(monkeypatch):
    seed = derive_seed(9, 7)
    monkeypatch.setattr(search, "MAX_TRACE_RETRIES", 1)
    with pytest.raises(GenerationError) as err:
        cd.build_traced(7, seed, 1000)
    message = str(err.value)
    for part in ("countdown", "id 7", "k=1000", f"{seed:#018x}"):
        assert part in message
