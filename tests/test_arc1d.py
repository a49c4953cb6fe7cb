import hashlib
import random
from unittest import mock

import pytest
from helpers import (
    ARC1D_TRANSFORM_REFERENCES,
    arc1d_parse_reference,
    arc1d_render_reference,
    arc1d_single_block_reference,
    arc1d_task,
    sudoku_render_reference,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforge import arc1d as a1
from traceforge import pipeline
from traceforge import sudoku as sd
from traceforge.core import (
    MARKER_PHRASE,
    Rng,
    TaskKind,
    derive_seed,
    extract_tags,
    render_completion,
)
from traceforge.search import solution_path, strip_detours


def rule(name, *params):
    return next(r for r in a1.RULE_POOL
                if r.name == name and r.params == params)


def sample_tasks(n, master=606):
    for i in range(n):
        yield a1.generate(Rng(derive_seed(master, i)))


# --- transform rules, hand-computed examples ---------------------------------

HAND_CASES = [
    ("shift_right", (1,), (1, 0, 2, 0), (0, 1, 0, 2)),
    ("shift_right", (2,), (3, 0, 0, 1, 0), (0, 0, 3, 0, 0)),
    ("shift_left", (-1,), (0, 4, 0, 5), (4, 0, 5, 0)),
    ("shift_left", (-2,), (0, 0, 7, 1, 0), (7, 1, 0, 0, 0)),
    ("mirror", (), (1, 2, 0, 3), (3, 0, 2, 1)),
    ("recolor", (1, 2), (1, 0, 2, 1), (2, 0, 2, 2)),
    ("recolor", (2, 3), (2, 3, 0, 2), (3, 3, 0, 3)),
    ("recolor", (3, 1), (3, 0, 1, 3), (1, 0, 1, 1)),
    ("fill_gap", (), (0, 5, 0, 0, 5, 0), (0, 5, 5, 5, 5, 0)),
    ("fill_gap", (), (2, 0, 0, 3), (2, 2, 2, 3)),
    ("move_block", ("right",), (0, 2, 2, 0, 0), (0, 0, 0, 2, 2)),
    ("move_block", ("left",), (0, 0, 3, 3, 0), (3, 3, 0, 0, 0)),
    ("duplicate", (), (0, 4, 4, 0, 0, 0), (0, 4, 4, 4, 4, 0)),
    ("duplicate", (), (0, 0, 0, 6, 6, 0), (0, 0, 0, 6, 6, 6)),
    ("erase", (1,), (1, 5, 1, 0), (0, 5, 0, 0)),
    ("erase", (2,), (2, 0, 9, 2), (0, 0, 9, 0)),
    ("swap", (1, 2), (1, 2, 0, 1), (2, 1, 0, 2)),
    ("grow", (1,), (0, 5, 5, 0, 0), (0, 5, 5, 5, 0)),
    ("grow", (2,), (0, 7, 0, 0), (0, 7, 7, 7)),
]


@pytest.mark.parametrize("name,params,grid,expected", HAND_CASES)
def test_rule_hand_computed(name, params, grid, expected):
    assert rule(name, *params).apply(grid) == expected


def test_rules_preserve_length():
    rng = random.Random(5)
    for r in a1.RULE_POOL:
        for _ in range(20):
            grid = tuple(rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(10))
            assert len(r.apply(grid)) == len(grid)


def test_multi_block_grids_pass_through_block_rules():
    scattered = (1, 0, 1, 0, 1)
    for name, params in (("move_block", ("right",)), ("duplicate", ()),
                         ("grow", (1,))):
        assert rule(name, *params).apply(scattered) == scattered


def test_rule_pool_is_unique():
    keys = [(r.name, r.params) for r in a1.RULE_POOL]
    assert len(set(keys)) == len(keys) == 17


@settings(max_examples=300)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=30).map(tuple))
@example((0,) * 12)
@example((5,))
@example((6, 6, 6, 0, 0, 0))  # a block at the left edge
@example((0, 0, 0, 2, 2))     # a block at the right edge
@example((3, 0, 0, 0, 3))     # markers at both edges
def test_grid_operations_match_the_per_cell_references(grid):
    assert a1._single_block(grid) == arc1d_single_block_reference(grid)
    # the block rules reach the reference through _single_block
    with mock.patch.object(a1, "_single_block", arc1d_single_block_reference):
        expected = [ARC1D_TRANSFORM_REFERENCES.get(r.fn, r.fn)(grid, *r.params)
                    for r in a1.RULE_POOL]
    assert [r.apply(grid) for r in a1.RULE_POOL] == expected
    assert a1.render_grid(grid) == arc1d_render_reference(grid)
    full = (grid * 81)[:81]
    assert sd.render_grid(full) == sudoku_render_reference(full)
    meta = sd._instance(0, 0, sd.SudokuPuzzle(full, full, 0)).meta
    assert meta["givens"] == meta["solution"] == "".join(map(str, full))


# --- generation --------------------------------------------------------------


def test_generate_examples_identify_rule_uniquely():
    for task in sample_tasks(30):
        consistent = a1.consistent_rules(task.train_pairs)
        assert consistent == [task.hidden_rule]


def test_generate_examples_are_nontrivial():
    for task in sample_tasks(20):
        for inp, out in task.train_pairs:
            assert out == task.hidden_rule.apply(inp)
            assert tuple(inp) != tuple(out)  # the rule must act visibly
        assert task.hidden_rule.apply(task.test_input) != task.test_input


def test_generate_respects_config():
    for task in sample_tasks(20):
        assert a1.PAIRS_RANGE[0] <= len(task.train_pairs) <= a1.PAIRS_RANGE[1]
        length = len(task.test_input)
        assert a1.LENGTH_RANGE[0] <= length <= a1.LENGTH_RANGE[1]
        assert all(len(i) == length for i, _ in task.train_pairs)


def test_golden_instance_frozen():
    inst = a1.build_instance(0, 2024)
    assert inst.meta["rule"] == ["grow", [1]]
    assert inst.meta["test_input"] == [0, 0, 0, 5, 5, 5, 5, 0, 0, 0, 0, 0, 0]
    assert inst.meta["expected"] == [0, 0, 0, 5, 5, 5, 5, 5, 0, 0, 0, 0, 0]
    assert inst.ground_truth == "0 0 0 5 5 5 5 5 0 0 0 0 0"


# --- solving -----------------------------------------------------------------


def test_heuristic_solve_finds_hidden_rule():
    for task in sample_tasks(25):
        _, winner = a1.heuristic_solve(task)
        assert winner == task.hidden_rule


def test_heuristic_solve_tree_shape():
    task = next(iter(sample_tasks(1)))
    nodes, winner = a1.heuristic_solve(task)
    # the solution path alone: root, study, the winning attempt, its use
    assert solution_path(nodes) == [0, 1, 2, 3]
    _, study, attempt, leaf = nodes
    assert all(node.key is None for node in nodes)
    # only the study node offers wrong attempts
    assert attempt.payload == ()
    rule_text = f"the rule '{winner.description}'"
    assert leaf.state_text.startswith(f"apply {rule_text}")
    assert attempt.state_text.startswith(f"try {rule_text}")
    # the study node offers every other pool rule as a wrong attempt
    assert sorted(idx for idx, _ in study.payload) == [
        idx for idx, r in enumerate(a1.RULE_POOL) if r != winner]


def test_heuristic_order_prefers_agreement_on_first_pair():
    task = next(iter(sample_tasks(1)))
    inp, out = task.train_pairs[0]
    nodes, _ = a1.heuristic_solve(task)
    study = nodes[1]
    agreements = []
    for idx, _ in study.payload:
        pred = a1.RULE_POOL[idx].apply(inp)
        agreements.append(sum(a == b for a, b in zip(pred, out)) / len(out))
    assert len(agreements) == len(a1.RULE_POOL) - 1
    assert agreements == sorted(agreements, reverse=True)


def test_consistent_rules_accepts_lists_and_matches_direct_check():
    for task in sample_tasks(20):
        as_lists = [[list(i), list(o)] for i, o in task.train_pairs]
        direct = [r for r in a1.RULE_POOL
                  if all(r.apply(i) == tuple(o) for i, o in task.train_pairs)]
        assert a1.consistent_rules(as_lists) == direct == [task.hidden_rule]
    # a rule that fits the first pair but not the second is not consistent
    pairs = [[[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
             [[2, 0, 0, 0, 0], [0, 0, 2, 0, 0]]]
    assert a1.consistent_rules(pairs[:1]) == [rule("shift_right", 1)]
    assert a1.consistent_rules(pairs) == []


# --- traces ------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 5, 10])
def test_trace_marker_count_is_exact(k):
    inst, trace = a1.build_traced(1, derive_seed(51, 1), k)
    assert render_completion(trace).count(MARKER_PHRASE) == k
    assert trace.backtracks == k


@pytest.mark.parametrize("k", [1, 5, 16])
def test_every_detour_is_one_wrong_attempt(k):
    # extend returns one attempt text, so no detour can walk past one
    for i, task in enumerate(sample_tasks(10)):
        nodes, _ = a1.heuristic_solve(task)
        path = solution_path(nodes)
        detours = a1.select_detours(nodes, path, k, random.Random(i),
                                    a1._extend)
        assert len(detours) == k
        assert all(len(det.steps) == 1 for det in detours)


def _first_miss(r, pairs):
    for m, (inp, out) in enumerate(pairs, start=1):
        if r.apply(inp) != tuple(out):
            return m
    return None


def test_attempt_text_and_observation_match_first_miss_oracle():
    descriptions = {r.description: r for r in a1.RULE_POOL}
    for i, task in enumerate(sample_tasks(50, master=717)):
        pairs = task.train_pairs
        trace = a1.make_trace(task, 16, random.Random(i))
        seen = set()
        for det in trace.detours:
            attempt, = det.steps
            d = attempt.split("'")[1]
            r = descriptions[d]
            m = _first_miss(r, pairs)
            assert m is not None
            inp = pairs[m - 1][0]
            assert attempt == (f"try the rule '{d}': on example {m}, "
                               f"{a1.render_grid(inp)} would become "
                               f"{a1.render_grid(r.apply(inp))}.")
            assert det.observation == (
                f"The expected output for example {m} is "
                f"{a1.render_grid(pairs[m - 1][1])}.")
            seen.add(r)
        assert len(seen) == 16 and task.hidden_rule not in seen


# SHA-256 of emit_sft(ARC1D, 200, k, master_seed=0) and its manifest at
# k=0 and at k=16, where every wrong attempt of every task is rendered
ARC1D_200_GOLDEN = {
    "arc1d_k0.jsonl": "c553b9f18bd594cf32652b295743e3b7b88babc880ca4d66487480f910b7ca03",
    "arc1d_k0.jsonl.manifest.json": "d7504d01c56e200932253b330335b3bd10a3de9bd9cfd7d60c64812de6227702",
    "arc1d_k16.jsonl": "14f8b9888f6bddcd7f6440d3746638c696b14fdda419cb8c2c8b5397e4313786",
    "arc1d_k16.jsonl.manifest.json": "4cf2607b6a397b423b9843dbf0256b4485d5c2687ade058bbe88437c1f39d522",
}


def test_sft_bytes_at_200_ids_and_all_attempts(tmp_path):
    got = {}
    for k in (0, 16):
        path = tmp_path / f"arc1d_k{k}.jsonl"
        pipeline.emit_sft(TaskKind.ARC1D, 200, k, 0, path)
        for name in (path.name, path.name + ".manifest.json"):
            got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == ARC1D_200_GOLDEN


def test_trace_k_at_pool_size_is_rejected():
    task = next(iter(sample_tasks(1)))
    with pytest.raises(ValueError):
        a1.make_trace(task, len(a1.RULE_POOL), random.Random(0))


def test_trace_answer_is_expected_output():
    inst, trace = a1.build_traced(0, derive_seed(53, 0), 5)
    assert a1.check(inst, trace.answer) == (True, True)
    assert trace.answer == inst.ground_truth


def test_trace_observation_reveals_expected_output():
    inst, trace = a1.build_traced(2, derive_seed(57, 2), 5)
    task = arc1d_task(inst)
    for det in trace.detours:
        assert det.observation.count("The expected output for example") == 1
        m = int(det.observation.split("example ")[1].split(" ")[0])
        assert 1 <= m <= len(task.train_pairs)


def test_strip_detours_matches_plain_build():
    for k in (1, 5, 10):
        inst, trace = a1.build_traced(0, derive_seed(59, 0), k)
        task = arc1d_task(inst)
        plain = a1.make_trace(task, 0, random.Random(0))
        assert render_completion(strip_detours(trace)) == render_completion(plain)


def test_trace_completion_is_well_formed():
    _, trace = a1.build_traced(3, derive_seed(61, 3), 1)
    assert extract_tags(render_completion(trace)).well_formed


def test_build_traced_deterministic():
    a = a1.build_traced(4, derive_seed(63, 4), 5)
    b = a1.build_traced(4, derive_seed(63, 4), 5)
    assert a[0] == b[0]
    assert render_completion(a[1]) == render_completion(b[1])


# --- answers -----------------------------------------------------------------


def test_parse_answer_accepts_digit_runs():
    assert a1.parse_answer("0 1 2 9 0") == (0, 1, 2, 9, 0)
    assert a1.parse_answer("  3 3\n") == (3, 3)


# "²" passes str.isdigit but not int(); "１" is a full-width digit
@pytest.mark.parametrize("text", ["", "1, 2, 3", "12 3", "1 a 2", "[1 2]",
                                  "²", "1 １"])
def test_parse_answer_rejects(text):
    assert a1.parse_answer(text) is None


# digits, ASCII and Unicode whitespace, "²" and "٣" (which pass
# str.isdigit), and tokens of more than one digit
ANSWER_PIECES = st.sampled_from(
    ["0", "1", "7", "9", "10", "99", " ", "  ", "\t", "\n", "\r\n", "\x0b",
     "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000", "²", "٣", "a"])


@given(st.lists(ANSWER_PIECES, max_size=30).map("".join))
@example("0 1 2 9 0")
@example("\u3000 3\xa03\n")
@example("3 ² 3")
@example("3 ٣")
@example("12 3")
def test_parse_answer_agrees_with_the_token_parser(text):
    assert a1.parse_answer(text) == arc1d_parse_reference(text)


def test_verify_checks_exact_grid():
    inst = a1.build_instance(0, derive_seed(606, 0))
    task = arc1d_task(inst)
    good = a1.render_grid(a1.expected_output(task))
    assert a1.check(inst, good) == (True, True)
    assert a1.check(inst, good + " 0") == (True, False)
    assert a1.check(inst, a1.render_grid(task.test_input)) == (True, False)
