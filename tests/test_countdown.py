import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import countdown_parse_reference, countdown_puzzle, \
    countdown_solvable, golden_pins, moved
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforge import countdown as cd
from traceforge import search
from traceforge.core import (
    MARKER_PHRASE,
    GenerationError,
    ProblemInstance,
    Rng,
    TaskKind,
    derive_seed,
    render_completion,
)
from traceforge.search import solution_path


def sample_puzzles(n, master=4242):
    for i in range(n):
        rng = Rng(derive_seed(master, i))
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_generated_moves_replay_to_the_target(seed):
    # each move is legal on the state before it, only the last one makes
    # the target, and the moves' text is a correct answer
    puzzle = cd.generate(Rng(seed))
    values = list(puzzle.numbers)
    for n, move in enumerate(puzzle.moves, 1):
        assert move in cd.legal_moves(values)
        assert (move[5] == puzzle.target) == (n == len(puzzle.moves))
        values = cd._apply_move(values, move)
    assert correct(puzzle, cd.render_moves(puzzle.numbers, puzzle.moves))


def test_generate_deterministic():
    a = cd.generate(random.Random(99))
    b = cd.generate(random.Random(99))
    assert a == b


def test_golden_instance_frozen():
    assert not moved(golden_pins("instance/countdown"))


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


def test_solve_dfs_answer_is_verified_solution():
    for puzzle in sample_puzzles(30):
        _, answer = cd.solve_dfs(puzzle)
        assert correct(puzzle, answer)


class ShuffleLog(random.Random):
    """A Random that records a copy of every list it shuffles."""

    def __init__(self, seed):
        super().__init__(seed)
        self.shuffled = []

    def shuffle(self, x):
        self.shuffled.append(list(x))
        super().shuffle(x)


def extend_path_checked(puzzle):
    """Solve, check the solve is the bare path, one node per move keyed
    by the sorted values it leaves, then let extend visit each branch
    point once with the path's step taken. It must draw from the first
    legal move there, in move order, of every multiset a move leaves,
    except the multisets that hold the target and the path step's, and
    return one of those multisets with its move's text first. Returns
    the texts of each branch point's candidates."""
    nodes, _ = cd.solve_dfs(puzzle)
    values = list(puzzle.numbers)
    keys = [None]
    for move in puzzle.moves:
        values = cd._apply_move(values, move)
        keys.append(tuple(sorted(values)))
    assert [node.key for node in nodes] == keys
    assert solution_path(nodes) == list(range(len(puzzle.moves) + 1))
    values = list(puzzle.numbers)
    levels = []
    for node, step, key in zip(nodes, puzzle.moves, keys[1:]):
        assert node.payload == tuple(values)
        rng = ShuffleLog(0)
        found = cd._extend(puzzle.target, node.payload, {key}, rng)
        firsts = {}
        for m in cd.legal_moves(values):
            left = tuple(sorted(cd._apply_move(values, m)))
            if m[5] != puzzle.target and left != key:
                firsts.setdefault(left, m)
        assert [[c[:2] for c in shuffled]
                for shuffled in rng.shuffled] == [list(firsts.items())]
        if found is not None:
            first, texts, _ = found
            assert first in firsts
            assert texts[0] == cd._move_text(firsts[first])
        levels.append([cd._move_text(m) for m in firsts.values()])
        values = cd._apply_move(values, step)
    return levels


def test_solve_dfs_tree_is_the_path_until_extend_branches():
    for puzzle in sample_puzzles(5):
        extend_path_checked(puzzle)


def test_expanded_branch_point_keeps_one_sibling_per_multiset():
    # after 49 - 18 = 31 the values are [6, 31, 31]: two moves read
    # "6 * 31 = 186." and two read "6 + 31 = 37.", but each two leave one
    # multiset, so "6 + 31 = 37." is one candidate, and "6 * 31 = 186.",
    # which leaves what the path's step leaves, is none
    puzzle = cd.CountdownPuzzle((49, 6, 31, 18), 155, (
        (0, 3, "-", 49, 18, 31, False),
        (0, 1, "*", 6, 31, 186, False),
        (0, 1, "-", 186, 31, 155, True)))
    levels = extend_path_checked(puzzle)
    nodes, _ = cd.solve_dfs(puzzle)
    assert nodes[2].state_text == "6 * 31 = 186."
    assert "6 * 31 = 186." not in levels[1]
    assert len(levels[1]) == len(set(levels[1]))
    assert "6 + 31 = 37." in levels[1]


def test_reachable_agrees_with_closure_oracle():
    rng = random.Random(77)
    for _ in range(120):
        vals = [rng.randint(1, 30) for _ in range(rng.randint(2, 4))]
        target = rng.randint(2, 120)
        assert cd.reachable(vals, target) == countdown_solvable(vals, target)
    assert not cd.reachable([3, 4, 5], 0)  # no move makes a value below 1


# Dense small inputs: equal values, division by 1 and targets below a value
# are common, and so are single values, which traces ask about most often.
dense_puzzles = st.lists(st.integers(1, 12), min_size=1, max_size=6).flatmap(
    lambda vals: st.tuples(
        st.just(vals),
        st.integers(1, 40).filter(lambda t: t not in vals)))


@settings(max_examples=300, deadline=None)
@given(dense_puzzles)
def test_reachable_matches_closure_oracle_on_dense_inputs(puzzle):
    vals, target = puzzle
    assert cd.reachable(vals, target) == countdown_solvable(vals, target)


def test_traces_check_reachability_on_at_most_three_values(monkeypatch):
    # reachable searches without a memo, which stays cheap only while a
    # detour's end holds few values: at most COUNT_RANGE[1] - 1 -
    # MAX_DETOUR_DEPTH = 3. Changing either constant so that ends hold
    # more must fail here rather than make that search large.
    sizes = []
    reachable = cd.reachable

    def counted(values, target):
        sizes.append(len(values))
        return reachable(values, target)

    monkeypatch.setattr(cd, "reachable", counted)
    for k in (1, 5, 10):
        for i in range(300):
            cd.build_traced(i, derive_seed(0, i), k)
    assert sizes
    assert max(sizes) <= 3


# --- expression rendering and parsing ----------------------------------------


def test_render_minimal_parentheses():
    nums = (2, 3, 4)
    # each second move combines [4, combined]; swapped puts position 1 first
    plus_first = [(0, 1, "+", 2, 3, 5, False), (0, 1, "*", 5, 4, 20, True)]
    assert cd.render_moves(nums, plus_first) == "(2 + 3) * 4"
    times_first = [(0, 1, "*", 2, 3, 6, False), (0, 1, "+", 6, 4, 10, True)]
    assert cd.render_moves(nums, times_first) == "2 * 3 + 4"


def test_render_right_associative_parentheses():
    nums = (10, 4, 2)
    moves = [(1, 2, "-", 4, 2, 2, False), (0, 1, "-", 10, 2, 8, False)]
    assert cd.render_moves(nums, moves) == "10 - (4 - 2)"
    assert cd.parse_answer(cd.render_moves(nums, moves))[0] == 8


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


NEST_200 = "(" * 200 + "1" + ")" * 200
NEST_201 = "(" * 201 + "1" + ")" * 201


@pytest.mark.parametrize(
    "text, value",
    [
        ("00", 0),
        ("0+00", 0),
        ("(1\n+2)", 3),
        ("( \r\n 1)", 1),
        ("1\x0c+2", 3),
        ("1\t+2", 3),
        pytest.param(NEST_200, 1, id="nest-200"),
        ("01", None),
        ("007", None),
        ("1\n+2", None),
        ("1\r+2", None),
        ("1\x0b+2", None),
        ("(1\x0b+2)", None),
        pytest.param(NEST_201, None, id="nest-201"),
        ("1//2", None),
        ("1**2", None),
        ("(1)(2)", None),
        ("1 (2)", None),
        ("()", None),
        ("0 0", None),
    ],
)
def test_parse_answer_pins_the_accepted_language(text, value):
    """Zero literals may repeat their zero, other literals take no leading
    zero; space, tab and form feed may sit between tokens, newlines only
    inside parentheses, vertical tab nowhere; at most 200 open
    parentheses at once."""
    parsed = cd.parse_answer(text)
    assert (None if parsed is None else parsed[0]) == value
    assert parsed == countdown_parse_reference(text, cd.MAX_ANSWER_OPERATORS)


def test_verify_checks_multiset_usage():
    puzzle = cd.CountdownPuzzle((5, 5, 3), 13, (
        (0, 1, "+", 5, 5, 10, False), (0, 1, "+", 3, 10, 13, False)))
    assert cd.check(instance_of(puzzle), "5 + 5 + 3") == (True, True)
    # third 5 not available
    assert cd.check(instance_of(puzzle), "5 + 5 + 5 - 2") == (True, False)
    fifteen = cd.CountdownPuzzle((5, 5, 3), 15,
                                 ((1, 2, "*", 5, 3, 15, False),))
    assert cd.check(instance_of(fifteen), "5 + 5 + 5") == (True, False)
    # no 4 in the puzzle
    assert cd.check(instance_of(puzzle), "5 + 5 + 4") == (True, False)
    # wrong value
    assert cd.check(instance_of(puzzle), "5 + 5 + 2") == (True, False)
    assert cd.check(instance_of(puzzle), "5 + 5 = 10") == (False, False)


def test_check_over_count_answer_keeps_its_parse_label():
    puzzle = cd.CountdownPuzzle((1, 2, 3, 4), 15, (
        (0, 3, "+", 1, 4, 5, False), (1, 2, "*", 3, 5, 15, False)))
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
        "9" * 5000,
        "(" * 1000 + "1" + ")" * 1000,
    ],
    ids=["over-cap", "5000-term", "unary-chain", "5000-digit", "nest-1000"],
)
def test_parse_answer_rejects_long_input(text):
    assert cd.parse_answer(text) is None


@settings(max_examples=300)
@given(st.text())
def test_parse_answer_is_total(text):
    """Any string reads to None or a value, never an exception; the
    reward's length cap is not what keeps the reader safe."""
    parsed = cd.parse_answer(text)
    assert parsed is None or type(parsed[0]) in (int, Fraction)


def test_parse_answer_accepts_up_to_the_cap():
    terms = cd.MAX_ANSWER_OPERATORS + 1
    value, used = cd.parse_answer("+".join(["1"] * terms))
    assert value == terms
    assert used == {1: terms}


def expressions(max_leaves=8):
    """Random infix text over small literals (0 included, so divisions by
    zero and inexact divisions are common, and some written with leading
    zeros) with optional parentheses and assorted whitespace between
    tokens."""
    leaf = st.one_of(
        st.integers(0, 12).map(str),
        st.tuples(st.integers(1, 3), st.integers(0, 12)).map(
            lambda t: "0" * t[0] + str(t[1])))
    gap = st.sampled_from(["", " ", "  ", "\t", "\f", "\n", "\r\n", "\v"])

    def combine(children):
        term = st.tuples(children, gap, st.sampled_from("+-*/"), gap,
                         children).map("".join)
        return st.one_of(term, term.map(lambda t: f"({t})"))

    return st.recursive(leaf, combine, max_leaves=max_leaves)


def deep_nests():
    """An expression inside 190 to 210 parentheses, around the 200 that
    may be open at once."""
    return st.tuples(expressions(4), st.integers(190, 210)).map(
        lambda t: "(" * t[1] + t[0] + ")" * t[1])


@settings(max_examples=500)
@given(st.one_of(
    expressions(), deep_nests(),
    st.text(alphabet="0123456789+-*/() \n\r\t\f\v", max_size=20)))
@example("8 / 3 * 3")
@example("7 / 2 - 7 / 2")
@example("1 / (2 - 2)")
@example("(2 - 5) / 3")
@example("1 / 3 * (4 - 4) / 5")
def test_parse_answer_agrees_with_the_fraction_walk(text):
    assert cd.parse_answer(text) == countdown_parse_reference(
        text, cd.MAX_ANSWER_OPERATORS)


def test_parse_answer_keeps_ints_until_a_division_is_inexact():
    value, _ = cd.parse_answer("6 / 3 * 2")
    assert type(value) is int and value == 4
    value, _ = cd.parse_answer("7 / 2")
    assert type(value) is Fraction and value == Fraction(7, 2)


def test_verify_allows_subset_of_numbers():
    puzzle = cd.CountdownPuzzle((9, 4, 7, 2), 13,
                                ((0, 1, "+", 9, 4, 13, False),))
    assert correct(puzzle, "9 + 4")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_witness_render_parse_roundtrip(seed):
    puzzle = cd.generate(random.Random(seed))
    text = cd.solve_dfs(puzzle)[1]
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
    assert render_completion(trace).count(MARKER_PHRASE) == k
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
        texts = trace.steps + tuple(t for d in trace.detours for t in d.steps)
        hits = [t for t in texts if t.endswith(f"= {target}.")]
        assert len(hits) == 1


def replay(values, text):
    """The values left after the move that ``text`` states."""
    x, _, y, _, result = text.rstrip(".").split()
    values = list(values)
    values.remove(int(x))
    values.remove(int(y))
    return values + [int(result)]


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
            except cd.GenerationError:
                continue
        nodes, _ = cd.solve_dfs(puzzle)
        walks = []

        def extend(values, taken, rng):
            found = cd._extend(puzzle.target, values, taken, rng)
            if found is not None:
                walks.append((values, found[1]))
            return found

        cd.select_detours(nodes, solution_path(nodes), 3,
                          random.Random(derive_seed(55, i)), extend)
        assert len(walks) == 3
        # replay each detour's move texts on the values it branched from
        for values, texts in walks:
            for text in texts:
                values = replay(values, text)
                assert puzzle.target not in values
            assert not countdown_solvable(values, puzzle.target)


def test_detours_at_one_step_leave_distinct_multisets():
    # no detour starts with a move that leaves what the path's step or an
    # earlier detour from the same step leaves; with repeated numbers, two
    # moves can read alike
    for i in range(40):
        inst, trace = cd.build_traced(i, derive_seed(0, i), 10)
        states = [inst.meta["numbers"]]
        for text in trace.steps:
            states.append(replay(states[-1], text))
        left = {}
        for detour in trace.detours:
            pos = detour.resume_step
            seen = left.setdefault(pos, {tuple(sorted(states[pos + 1]))})
            key = tuple(sorted(replay(states[pos], detour.steps[0])))
            assert key not in seen
            seen.add(key)


def test_sft_bytes_at_200_ids_and_ten_detours():
    # emit_sft at 200 ids and k=10, where every record walks ten detours and
    # states why each is dead, and its manifest
    assert not moved(golden_pins("countdown_200/"))


def test_strip_detours_matches_plain_build():
    for k in (1, 5, 10):
        inst, trace = cd.build_traced(0, derive_seed(66, 0), k)
        puzzle = countdown_puzzle(inst)
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
