import pytest
from helpers import TAG_FRAGMENTS, tags_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforge.core import (
    BACKTRACK_TEMPLATE,
    CONCLUSION,
    PREAMBLE,
    Detour,
    ProblemInstance,
    ReasoningTrace,
    TaskKind,
    derive_seed,
    extract_tags,
    render_completion,
    render_sft_record,
    render_think_body,
)

# --- seed derivation ---------------------------------------------------------


def test_derive_seed_matches_splitmix64_reference():
    # published splitmix64 outputs for initial state 0
    assert derive_seed(0, 1) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 2) == 0x6E789E6AA1B965F4
    assert derive_seed(0, 3) == 0x06C45D188009454F


def test_derive_seed_frozen_values():
    assert derive_seed(0, 0) == 0
    assert derive_seed(42, 7) == 0x37E9671C45376D5D


def test_derive_seed_distinct_across_indices():
    seeds = {derive_seed(99, i) for i in range(10_000)}
    assert len(seeds) == 10_000


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 2**32))
def test_derive_seed_injective_per_master(master, i, j):
    if i != j:
        assert derive_seed(master, i) != derive_seed(master, j)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_derive_seed_stays_in_64_bits(master, index):
    assert 0 <= derive_seed(master, index) < 2**64


# --- tag extraction ----------------------------------------------------------


def test_extract_tags_well_formed():
    tags = extract_tags("x<think>reasoning</think>y<answer>42</answer>z")
    assert tags.well_formed
    assert tags.answer == "42"


@pytest.mark.parametrize(
    "completion",
    [
        "no tags at all",
        "<think>only thinking</think>",
        "<answer>only answer</answer>",
        "<think>a</think><answer>b</answer><answer>c</answer>",
        "<think>a<think>b</think></think><answer>c</answer>",
        "<answer>b</answer><think>a</think>",
        "<think><answer>inside</answer></think>",
        "<think>open only<answer>x</answer>",
        "</think>backwards<think><answer>x</answer>",
    ],
)
def test_extract_tags_malformed(completion):
    assert not extract_tags(completion).well_formed


def test_extract_tags_interleaved_is_malformed():
    tags = extract_tags("<think>a<answer>b</think>c</answer>")
    assert not tags.well_formed


def test_extract_tags_best_effort_spans_on_malformed_input():
    tags = extract_tags("<answer>late</answer> then <think>x</think> again <answer>dup</answer>")
    assert not tags.well_formed
    assert tags.answer == "late"


@given(st.text(alphabet="<>/thinkaswer 42\n", max_size=200))
def test_extract_tags_never_raises(text):
    tags = extract_tags(text)
    if tags.well_formed:
        assert tags.answer is not None


@settings(max_examples=500)
@given(st.lists(st.sampled_from(TAG_FRAGMENTS), max_size=24).map("".join))
@example("<think>a</think><answer>b</answer>")
@example("<think>a</think><answer>b</answer><think>")
@example("<think><think></think><answer>b</answer>")
@example("<<think>></think><answer></answer></answer>")
# more stray "<" than the scan tries one by one, so a regex pass reads on
@example("<" * 17 + "<think>a</think><answer>b</answer>")
@example("x<" * 40 + "<think>a</think><answer>b</answer>")
@example("<think>a" + "<" * 17 + "</think><answer>b</answer><think>")
@example("<think>a < b</think><answer>b</answer>")
@example("<think>" + "a" * 65536 + "</think><answer>b</answer>")
@example("<think>" + "a" * 65536 + "</think><answer>b</answer></answer>")
def test_extract_tags_agrees_with_the_count_based_scan(text):
    tags = extract_tags(text)
    assert (tags.answer, tags.well_formed) == tags_reference(text)


# runs of "<" long enough to cross the scan's hand-over to the regex pass
# at any point, between tags and tag fragments
LT_RUNS = st.integers(1, 40).map("<".__mul__)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(TAG_FRAGMENTS), LT_RUNS),
                max_size=16).map("".join))
def test_extract_tags_agrees_with_the_count_based_scan_on_runs_of_lt(text):
    tags = extract_tags(text)
    assert (tags.answer, tags.well_formed) == tags_reference(text)


# --- rendering ---------------------------------------------------------------

# golden rendering with one backtrack, frozen character for character
GOLDEN_COMPLETION = (
    "Let me solve this step by step.\n"
    "<think>\n"
    "Step 1: 51 - 23 = 28. Step 2: 28 * 36 = 1008. Step 3: 1008 - 57 = 951. "
    "Step 4: 951 - 48 = 885. Wait, this doesn't lead to the correct solution. "
    "885 is not the correct answer. Let me go back to step 2 and keep thinking "
    "from there.\n"
    "Step 3: 1008 - 27 = 981. Step 4: 981 - 48 = 933. "
    "This matches the problem statement. This is the solution.\n"
    "</think>\n"
    "\n"
    "<answer>51 - 36 * 36 - 57 - 48 - 27</answer>"
)


def _golden_trace():
    return ReasoningTrace(
        steps=("51 - 23 = 28.", "28 * 36 = 1008.", "1008 - 27 = 981.",
               "981 - 48 = 933."),
        detours=(Detour(2, ("1008 - 57 = 951.", "951 - 48 = 885."),
                        "885 is not the correct answer."),),
        answer="51 - 36 * 36 - 57 - 48 - 27",
    )


def test_render_completion_golden():
    assert render_completion(_golden_trace()) == GOLDEN_COMPLETION


def test_rendered_completion_is_well_formed():
    tags = extract_tags(render_completion(_golden_trace()))
    assert tags.well_formed
    assert tags.answer == "51 - 36 * 36 - 57 - 48 - 27"


def test_render_think_body_marker_ends_its_line():
    trace = ReasoningTrace(("a.", "b."), (Detour(1, (), "Dead."),), "x")
    assert render_think_body(trace) == (
        "Step 1: a. " + BACKTRACK_TEMPLATE.format(observation="Dead.", step=1)
        + "\nStep 2: b. " + CONCLUSION)


def test_render_think_body_no_marker_single_line():
    body = render_think_body(ReasoningTrace(("a.", "b."), (), "x"))
    assert "\n" not in body
    assert body == "Step 1: a. Step 2: b. " + CONCLUSION


# two detours at one step, rendered in selection order, each restarting
# the numbering after step 1, frozen character for character
TWO_AT_ONE_STEP = (
    "Step 1: 6 + 4 = 10. Step 2: 10 * 3 = 30. Step 3: 30 - 2 = 28. "
    "Wait, this doesn't lead to the correct solution. 28 is not the correct "
    "answer. Let me go back to step 1 and keep thinking from there.\n"
    "Step 2: 10 - 3 = 7. "
    "Wait, this doesn't lead to the correct solution. 7 is not the correct "
    "answer. Let me go back to step 1 and keep thinking from there.\n"
    "Step 2: 10 + 3 = 13. Step 3: 13 + 2 = 15. "
    "This matches the problem statement. This is the solution."
)


def test_render_think_body_two_detours_at_one_step():
    trace = ReasoningTrace(
        steps=("6 + 4 = 10.", "10 + 3 = 13.", "13 + 2 = 15."),
        detours=(Detour(1, ("10 * 3 = 30.", "30 - 2 = 28."),
                        "28 is not the correct answer."),
                 Detour(1, ("10 - 3 = 7.",), "7 is not the correct answer.")),
        answer="6 + 4 + 3 + 2",
    )
    assert render_think_body(trace) == TWO_AT_ONE_STEP
    assert trace.backtracks == 2


# past the last step: test_search::test_linearize_rejects_detour_off_the_path
@pytest.mark.parametrize("resume_steps", [(0,), (3, 2)],
                         ids=["before-step-1", "out-of-order"])
def test_render_think_body_rejects_a_detour_it_cannot_place(resume_steps):
    trace = ReasoningTrace(
        ("a.", "b.", "c.", "d."),
        tuple(Detour(p, ("wrong.",), "Dead.") for p in resume_steps), "x")
    with pytest.raises(ValueError, match="off the 4 steps or out of order"):
        render_think_body(trace)


def test_render_completion_shape():
    text = render_completion(_golden_trace())
    assert text.startswith(PREAMBLE + "\n<think>\n")
    assert "</think>\n\n<answer>" in text
    assert text.endswith("</answer>")


# --- record assembly ---------------------------------------------------------


def _instance(iid=7):
    return ProblemInstance(
        id=iid,
        task=TaskKind.COUNTDOWN,
        prompt="prompt",
        ground_truth="1 + 2",
        seed=3,
        meta={},
    )


def test_render_sft_record_carries_fields():
    trace = _golden_trace()._replace(instance_id=7)
    rec = render_sft_record(_instance(7), trace)
    assert rec.instance_id == 7
    assert rec.task == TaskKind.COUNTDOWN
    assert rec.backtracks == 1
    assert rec.completion == GOLDEN_COMPLETION
    assert rec.correctness_label is None


def test_render_sft_record_rejects_foreign_trace():
    trace = _golden_trace()._replace(instance_id=8)
    with pytest.raises(ValueError):
        render_sft_record(_instance(7), trace)


def test_task_kind_round_trips_through_value():
    for kind in TaskKind:
        assert TaskKind(kind.value) is kind


@settings(max_examples=50)
@given(st.lists(st.text(alphabet="ab ", min_size=1, max_size=8), min_size=1, max_size=6))
def test_render_think_body_line_count_tracks_markers(texts):
    trace = ReasoningTrace((texts[0], "resume."),
                           (Detour(1, tuple(texts[1:]), "Dead."),), "x")
    assert render_think_body(trace).count("\n") == 1
