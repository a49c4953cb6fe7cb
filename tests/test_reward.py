import random
import time

import pytest
from helpers import TAG_FRAGMENTS, score_reference, wrap
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforge import arc1d, countdown, reward, sudoku, xtasks
from traceforge.core import ProblemInstance, TaskKind, derive_seed
from traceforge.pipeline import split_by_correctness
from traceforge.reward import (
    CATEGORIES,
    CORRECT,
    INCORRECT,
    INCORRECT_FORMAT,
    ScoreBreakdown,
    classify,
    evaluate,
    pair_completions,
    pass_at_1,
    render_eval_table,
    score,
)
from traceforge.tasks import TASKS


@pytest.fixture(scope="module")
def cd_instance():
    return countdown.build_instance(0, 12345)


# --- score totals and categories ---------------------------------------------


def test_correct_completion_scores_full(cd_instance):
    got = score(cd_instance, wrap(cd_instance.ground_truth))
    assert got.format_score == 0.1
    assert got.answer_score == 0.9
    assert got.total == 1.0
    assert got.category == CORRECT


def test_wrong_but_parseable_scores_format_only(cd_instance):
    got = score(cd_instance, wrap("1 + 2"))
    assert got.total == 0.1
    assert got.category == INCORRECT


def test_unparseable_answer_keeps_format_point(cd_instance):
    # tags are fine, but the countdown grammar rejects an equals sign
    got = score(cd_instance, wrap(cd_instance.ground_truth + " = 167"))
    assert got.format_score == 0.1
    assert got.answer_score == 0.0
    assert got.category == INCORRECT_FORMAT


def test_broken_tags_zero_out_a_right_answer(cd_instance):
    text = f"<answer>{cd_instance.ground_truth}</answer>"
    got = score(cd_instance, text)
    assert got.total == 0.0
    assert got.category == INCORRECT_FORMAT


def test_ungated_config_pays_answer_despite_tags(cd_instance):
    text = f"<answer>{cd_instance.ground_truth}</answer>"
    got = score(cd_instance, text, gated=False)
    assert got.format_score == 0.0
    assert got.answer_score == 0.9
    assert got.total == 0.9
    assert got.category == INCORRECT_FORMAT


def test_duplicated_tags_are_malformed(cd_instance):
    text = wrap(cd_instance.ground_truth) + "\n<answer>extra</answer>"
    assert score(cd_instance, text).category == INCORRECT_FORMAT


def test_missing_answer_tag(cd_instance):
    got = score(cd_instance, "Let me solve this step by step.\n<think>\nhm\n</think>")
    assert got.total == 0.0
    assert got.category == INCORRECT_FORMAT


def test_gated_totals_land_on_three_values(cd_instance):
    rng = random.Random(9)
    texts = [wrap(cd_instance.ground_truth), wrap("1 + 2"), "<think>loose</think>"]
    texts += ["".join(rng.choice("<>answer think/135+ ") for _ in range(40))
              for _ in range(200)]
    for text in texts:
        assert score(cd_instance, text).total in (0.0, 0.1, 1.0)


# a countdown answer the grammar reads and verifies, one it reads but is
# wrong, and one it cannot read; around them, pieces of tags and text
CD_ANSWERS = ("95 + 53 + 19", "1 + 2", "95 + 53 = 148")


@settings(max_examples=300)
@given(text=st.lists(st.sampled_from(TAG_FRAGMENTS + CD_ANSWERS),
                     max_size=16).map("".join),
       gated=st.booleans())
@example(text=wrap(CD_ANSWERS[0]), gated=True)
@example(text=f"<answer>{CD_ANSWERS[0]}</answer>", gated=False)
@example(text=f"<answer>{CD_ANSWERS[0]}</answer>", gated=True)
@example(text=wrap(CD_ANSWERS[1]), gated=False)
@example(text=wrap(CD_ANSWERS[2]), gated=True)
def test_score_equals_the_breakdown_built_field_by_field(cd_instance, text,
                                                         gated):
    got = score(cd_instance, text, gated)
    want = score_reference(cd_instance, text, gated)
    assert got == want


def test_classify_matches_score_category(cd_instance):
    for text in (wrap(cd_instance.ground_truth), wrap("1 + 2"), "junk"):
        assert classify(cd_instance, text) == score(cd_instance, text).category


# --- per-task answer checking -------------------------------------------------


def test_countdown_accepts_reordered_expression(cd_instance):
    # numbers [95, 53, 75, 65, 22, 19], target 167
    assert score(cd_instance, wrap("95 + 53 + 19")).category == CORRECT


def test_sudoku_answer_grammar():
    inst = sudoku.build_instance(0, 777)
    right = "\n".join(
        " ".join(inst.meta["solution"][r * 9 + c] for c in range(9))
        for r in range(9)
    )
    assert score(inst, wrap(right)).category == CORRECT
    commas = right.replace(" ", ", ")
    assert score(inst, wrap(commas)).category == INCORRECT_FORMAT
    wrong = right.replace("1", "2", 1)  # still shape-valid, just not the solution
    assert score(inst, wrap(wrong)).category == INCORRECT
    swapped = "\n".join(right.split("\n")[::-1])
    assert score(inst, wrap(swapped)).category == INCORRECT


def test_arc1d_answer_grammar():
    inst = arc1d.build_instance(0, 2024)
    assert score(inst, wrap(inst.ground_truth)).category == CORRECT
    commas = inst.ground_truth.replace(" ", ",")
    assert score(inst, wrap(commas)).category == INCORRECT_FORMAT
    flipped = " ".join(reversed(inst.ground_truth.split()))
    want = INCORRECT if flipped != inst.ground_truth else CORRECT
    assert score(inst, wrap(flipped)).category == want
    # "²" passes str.isdigit but not int(); full-width digits are not ASCII
    assert score(inst, wrap("²")).category == INCORRECT_FORMAT
    full_width = inst.ground_truth.translate(
        {ord(d): 0xFF10 + int(d) for d in "0123456789"})
    assert score(inst, wrap(full_width)).category == INCORRECT_FORMAT


def test_geometry_angle_answer_grammar():
    inst = xtasks.build_angle_instance(0, 31)
    assert score(inst, wrap(inst.ground_truth)).category == CORRECT
    assert score(inst, wrap(inst.ground_truth.rstrip("°"))).category == INCORRECT_FORMAT
    assert score(inst, wrap(inst.ground_truth + "0")).category == INCORRECT_FORMAT
    assert score(inst, wrap("12.34°")).category in (INCORRECT, CORRECT)


def test_geometry_orthocenter_answer_grammar():
    inst = xtasks.build_orthocenter_instance(0, 32)
    assert score(inst, wrap(inst.ground_truth)).category == CORRECT
    bare = inst.ground_truth.strip("()")
    assert score(inst, wrap(bare)).category == INCORRECT_FORMAT
    assert score(inst, wrap("(0.000, 0.000)")).category in (INCORRECT, CORRECT)


def test_geometry_incircle_answer_grammar():
    inst = xtasks.build_incircle_instance(0, 33)
    assert score(inst, wrap(inst.ground_truth)).category == CORRECT
    truncated = inst.ground_truth[:-1]  # two decimal places instead of three
    assert score(inst, wrap(truncated)).category == INCORRECT_FORMAT


def test_color_cube_case_insensitive_answers():
    inst = xtasks.build_cube_instance(0, 444)
    assert score(inst, wrap(inst.ground_truth.upper())).category == CORRECT
    assert score(inst, wrap("chartreuse")).category == INCORRECT
    assert score(inst, wrap("")).category == INCORRECT_FORMAT


def test_self_reference_answers():
    inst = xtasks.build_selfref_instance(0, 555)
    assert score(inst, wrap(inst.ground_truth)).category == CORRECT
    assert score(inst, wrap("200")).category == INCORRECT
    assert score(inst, wrap("many")).category == INCORRECT_FORMAT
    # past int()'s 4,300-digit limit, and past MAX_ANSWER_CHARS
    assert score(inst, wrap("1" * 4301)).category == INCORRECT_FORMAT


def zebra_instance():
    return ProblemInstance(
        id=0, task=TaskKind.ZEBRA, prompt="Who owns the zebra?",
        ground_truth="Peter", seed=1, meta={},
    )


def listfunc_instance():
    return ProblemInstance(
        id=1, task=TaskKind.LIST_FUNCTIONS, prompt="Apply the rule to [1, 2, 3].",
        ground_truth="[2, 4, 6]", seed=2, meta={},
    )


def every_task_instance():
    return [
        countdown.build_instance(0, 12345),
        sudoku.build_instance(0, 777),
        arc1d.build_instance(0, 2024),
        xtasks.build_angle_instance(0, 31),
        xtasks.build_orthocenter_instance(0, 32),
        xtasks.build_incircle_instance(0, 33),
        xtasks.build_cube_instance(0, 444),
        xtasks.build_selfref_instance(0, 555),
        zebra_instance(),
        listfunc_instance(),
    ]


def test_every_task_instance_covers_every_task():
    assert {inst.task for inst in every_task_instance()} == set(TaskKind)


@pytest.mark.parametrize("terms", [999, 1000, 5000])
def test_countdown_long_sum_scores_incorrect_format(cd_instance, terms):
    # past the answer grammar's cap on operators
    got = score(cd_instance, wrap("+".join(["1"] * terms)))
    assert got.category == INCORRECT_FORMAT


def test_countdown_unary_chain_is_unparseable(cd_instance):
    assert score(cd_instance, wrap("-" * 10_000 + "1")).category == INCORRECT_FORMAT


def test_answer_length_cap_is_exact():
    inst = xtasks.build_selfref_instance(0, 555)
    cap = reward.MAX_ANSWER_CHARS
    at_cap = inst.ground_truth.rjust(cap, "0")
    assert score(inst, wrap(f"  {at_cap}  ")).category == CORRECT
    assert score(inst, wrap("0" + at_cap)).category == INCORRECT_FORMAT


def _nested(depth, left, right):
    return left * depth + "1" + right * depth


ADVERSARIAL_ANSWERS = st.one_of(
    st.text(),
    st.text(alphabet="0123456789+-*/() \n[],.°"),
    st.integers(0, 10_000).map(lambda n: "+".join(["1"] * n)),
    st.integers(0, 1_000).map(lambda d: _nested(d, "(", ")")),
    st.integers(0, 1_000).map(lambda d: _nested(d, "1+(", ")")),
    st.integers(0, 1_000).map(lambda d: _nested(d, "[", "]")),
    st.integers(0, 10_000).map(lambda n: "-" * n + "1"),
    st.integers(0, 10_000).map(lambda n: "1" * n),
)


MB = 1 << 20


@pytest.mark.parametrize("inst", every_task_instance(), ids=lambda i: i.task.value)
@settings(max_examples=40, deadline=None)
@given(answer=ADVERSARIAL_ANSWERS, tagged=st.booleans())
@example(answer="+".join(["1"] * 10_000), tagged=True)
@example(answer=_nested(1_000, "(", ")"), tagged=True)
@example(answer=_nested(1_000, "1+(", ")"), tagged=True)
@example(answer="-" * 10_000 + "1", tagged=True)
@example(answer="1" * 5000, tagged=True)
# 1 MB completions; text dense in "<" is the tag scan's slowest kind
@example(answer="<" * MB, tagged=False)
@example(answer="<think>" * (MB // 7), tagged=False)
@example(answer="a" * MB, tagged=False)
def test_score_is_total_and_bounded(inst, answer, tagged):
    completion = wrap(answer) if tagged else answer
    start = time.perf_counter()
    got = score(inst, completion)
    assert time.perf_counter() - start < 2.0
    assert isinstance(got, ScoreBreakdown)
    assert got.category in CATEGORIES


def _remeta(inst, **fields):
    return inst._replace(meta={**inst.meta, **fields})


def _malformed_meta_cases():
    cd_inst = countdown.build_instance(0, 12345)
    sd_inst = sudoku.build_instance(0, 777)
    arc_inst = arc1d.build_instance(0, 2024)
    solution = sd_inst.meta["solution"]
    expected = arc_inst.meta["expected"]
    cases = {
        "sudoku-80-digits": _remeta(sd_inst, solution=solution[:80]),
        "sudoku-ints": _remeta(sd_inst, solution=[int(ch) for ch in solution]),
        "arc1d-text": _remeta(arc_inst, expected=" ".join(map(str, expected))),
        "arc1d-strings": _remeta(arc_inst, expected=[str(v) for v in expected]),
        "countdown-strings": _remeta(
            cd_inst, numbers=[str(v) for v in cd_inst.meta["numbers"]]),
        "countdown-float-target": _remeta(
            cd_inst, target=cd_inst.meta["target"] + 0.5),
    }
    return [pytest.param(inst, id=name) for name, inst in cases.items()]


@pytest.mark.parametrize("inst", _malformed_meta_cases())
def test_malformed_meta_field_raises_named_error(inst):
    message = f"malformed {inst.task.value} instance {inst.id}: ValueError: meta"
    with pytest.raises(ValueError, match=message):
        reward.check_answer(inst, inst.ground_truth)
    with pytest.raises(ValueError, match=message):
        score(inst, wrap(inst.ground_truth))
    # the field is read only once the answer parses, as before
    assert reward.check_answer(inst, "no answer = here") == (False, False)


@pytest.fixture(scope="module")
def malformed_instances():
    """task -> [(malformed instance, an answer its grammar reads)]"""
    cases = {}
    for task, truth, answer in (
        (TaskKind.GEOMETRY_ANGLE, "90.00", "90.00°"),
        (TaskKind.GEOMETRY_ORTHOCENTER, "(1.0, 2.0)", "(1.000, 2.000)"),
        (TaskKind.GEOMETRY_INCIRCLE, "1.0", "1.000"),
        (TaskKind.COLOR_CUBE, "", "red"),
        (TaskKind.SELF_REFERENCE, "1_0", "10"),
        (TaskKind.ZEBRA, "   ", "Alice"),
        (TaskKind.LIST_FUNCTIONS, "[2, 4, six]", "[2, 4, 6]"),
    ):
        inst = ProblemInstance(id=17, task=task, prompt="?",
                               ground_truth=truth, seed=0, meta={})
        cases[task] = [(inst, answer)]
    for param in _malformed_meta_cases():
        inst, = param.values
        cases.setdefault(inst.task, []).append((inst, inst.ground_truth))
    return cases


@pytest.mark.parametrize("task", list(TASKS), ids=lambda task: task.value)
def test_malformed_instance_raises_named_error(malformed_instances, task):
    for inst, answer in malformed_instances[task]:
        with pytest.raises(ValueError,
                           match=f"malformed {task.value} instance {inst.id}: "):
            reward.check_answer(inst, answer)


@pytest.mark.parametrize(
    "spec", [spec for spec in TASKS.values() if spec.build_instance],
    ids=lambda spec: spec.kind.value)
def test_generated_truth_reads_back_through_its_check(spec):
    for i in range(5):
        inst = spec.build_instance(i, derive_seed(13, i))
        assert spec.check(inst, inst.ground_truth) == (True, True)


def test_zebra_answers():
    inst = zebra_instance()
    assert score(inst, wrap("PETER")).category == CORRECT
    assert score(inst, wrap("Paul")).category == INCORRECT
    assert score(inst, wrap("  ")).category == INCORRECT_FORMAT


def test_list_functions_answers():
    inst = listfunc_instance()
    assert score(inst, wrap("[2 4 6]")).category == CORRECT
    assert score(inst, wrap("[2, 4, 7]")).category == INCORRECT
    assert score(inst, wrap("2 4 6")).category == INCORRECT_FORMAT


# --- aggregation --------------------------------------------------------------


def test_pass_at_1(cd_instance):
    scores = [
        score(cd_instance, wrap(cd_instance.ground_truth)),
        score(cd_instance, wrap("1 + 2")),
        score(cd_instance, "junk"),
        score(cd_instance, wrap(cd_instance.ground_truth)),
    ]
    assert pass_at_1(scores) == 0.5
    with pytest.raises(ValueError):
        pass_at_1([])


def test_evaluate_pools_geometry_and_counts_misses(cd_instance):
    instances = [
        cd_instance,
        xtasks.build_angle_instance(10, 31),
        xtasks.build_orthocenter_instance(11, 32),
        zebra_instance()._replace(id=12),
    ]
    completions = [
        {"instance_id": cd_instance.id,
         "completion": wrap(cd_instance.ground_truth)},
        {"instance_id": 10, "completion": wrap(instances[1].ground_truth)},
        {"instance_id": 11, "completion": wrap("(999.000, 999.000)")},
        # zebra instance never answered: counts as a miss
    ]
    rates = evaluate(instances, completions)
    assert rates == {"AG": 0.5, "CD": 1.0, "ZP": 0.0}
    assert list(rates) == ["AG", "CD", "ZP"]  # fixed column order


def test_evaluate_accepts_record_list(cd_instance):
    rows = [{"instance_id": cd_instance.id,
             "completion": wrap(cd_instance.ground_truth)}]
    assert evaluate([cd_instance], rows) == {"CD": 1.0}


def test_evaluate_rejects_unknown_instance(cd_instance):
    with pytest.raises(ValueError):
        evaluate([cd_instance], [{"instance_id": 99,
                                  "completion": wrap("1 + 2")}])


def test_pair_completions_keeps_item_order_and_rejects_unknown_ids(cd_instance):
    other = xtasks.build_angle_instance(10, 31)
    items = [{"instance_id": 10, "completion": "a"},
             {"instance_id": cd_instance.id, "completion": "b"},
             {"instance_id": 10, "completion": "c"}]
    assert pair_completions([cd_instance, other], items) == [
        (other, "a"), (cd_instance, "b"), (other, "c")]
    with pytest.raises(ValueError, match="unknown instance 99"):
        pair_completions([cd_instance], [{"instance_id": 99, "completion": ""}])


def test_an_id_two_instances_share_is_rejected():
    # each instance file numbers its ids from 0, so a file concatenating two
    # tasks' files holds every id twice
    instances = [module.build_traced(i, derive_seed(3, i), 1)[0]
                 for module in (countdown, arc1d) for i in range(3)]
    items = [{"instance_id": inst.id, "completion": wrap(inst.ground_truth)}
             for inst in instances]
    message = "instance id 0 is used twice, by countdown and by arc1d"
    with pytest.raises(ValueError, match=message):
        pair_completions(instances, items)
    with pytest.raises(ValueError, match=message):
        evaluate(instances, items)
    with pytest.raises(ValueError, match=message):
        split_by_correctness(instances, items)


@pytest.mark.parametrize("item,message", [
    ({"instance_id": 1.7, "completion": "x"}, "got 1.7"),
    ({"instance_id": True, "completion": "x"}, "got True"),
    ({"instance_id": "0", "completion": "x"}, "got '0'"),
    ({"instance_id": 0, "completion": 5}, "completion must be a string"),
], ids=["float_id", "bool_id", "string_id", "int_completion"])
def test_library_callers_get_the_completion_type_rule(cd_instance, item,
                                                      message):
    one = countdown.build_instance(1, 777)
    with pytest.raises(ValueError, match=message):
        evaluate([cd_instance, one], [item])
    with pytest.raises(ValueError, match=message):
        split_by_correctness([cd_instance, one], [item])


def test_render_eval_table():
    text = render_eval_table({"CD": 0.515, "AG": 0.344})
    lines = text.split("\n")
    assert len(lines) == 2
    assert lines[0].split() == ["AG", "CD"]
    assert lines[1].split() == ["0.344", "0.515"]
    assert render_eval_table({}) == "(no results)"
