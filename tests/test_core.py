import pytest
from helpers import tags_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforge.core import (
    BacktrackMarker,
    Conclusion,
    PREAMBLE,
    ProblemInstance,
    ReasoningTrace,
    Step,
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


TAG_FRAGMENTS = ("<think>", "</think>", "<answer>", "</answer>", "<think",
                 "</answer", "think>", "</", "<", ">", "/", "x", " ", "\n")


@settings(max_examples=500)
@given(st.lists(st.sampled_from(TAG_FRAGMENTS), max_size=24).map("".join))
@example("<think>a</think><answer>b</answer>")
@example("<think>a</think><answer>b</answer><think>")
@example("<think><think></think><answer>b</answer>")
@example("<<think>></think><answer></answer></answer>")
def test_extract_tags_agrees_with_the_count_based_scan(text):
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
    marker = (
        "Wait, this doesn't lead to the correct solution. 885 is not the "
        "correct answer. Let me go back to step 2 and keep thinking from there."
    )
    return ReasoningTrace(
        events=(
            Step(1, "51 - 23 = 28."),
            Step(2, "28 * 36 = 1008."),
            Step(3, "1008 - 57 = 951."),
            Step(4, "951 - 48 = 885."),
            BacktrackMarker(2, marker),
            Step(3, "1008 - 27 = 981."),
            Step(4, "981 - 48 = 933."),
            Conclusion("This matches the problem statement. This is the solution."),
        ),
        answer="51 - 36 * 36 - 57 - 48 - 27",
        backtracks=1,
    )


def test_render_completion_golden():
    assert render_completion(_golden_trace()) == GOLDEN_COMPLETION


def test_rendered_completion_is_well_formed():
    tags = extract_tags(render_completion(_golden_trace()))
    assert tags.well_formed
    assert tags.answer == "51 - 36 * 36 - 57 - 48 - 27"


def test_render_think_body_marker_ends_its_line():
    events = (
        Step(1, "a."),
        BacktrackMarker(1, "Wait. Back to step 1."),
        Step(2, "b."),
        Conclusion("done."),
    )
    assert render_think_body(events) == "Step 1: a. Wait. Back to step 1.\nStep 2: b. done."


def test_render_think_body_no_marker_single_line():
    events = (Step(1, "a."), Step(2, "b."), Conclusion("done."))
    body = render_think_body(events)
    assert "\n" not in body
    assert body == "Step 1: a. Step 2: b. done."


def test_render_think_body_rejects_unknown_events():
    with pytest.raises(TypeError):
        render_think_body(("not an event",))


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
    )


def test_render_sft_record_carries_fields():
    trace = _golden_trace()
    trace.meta["instance_id"] = 7
    rec = render_sft_record(_instance(7), trace)
    assert rec.instance_id == 7
    assert rec.task == TaskKind.COUNTDOWN
    assert rec.backtracks == 1
    assert rec.completion == GOLDEN_COMPLETION
    assert rec.correctness_label is None


def test_render_sft_record_rejects_foreign_trace():
    trace = _golden_trace()
    trace.meta["instance_id"] = 8
    with pytest.raises(ValueError):
        render_sft_record(_instance(7), trace)


def test_render_sft_record_rejects_marker_miscount():
    trace = _golden_trace()
    trace.backtracks = 3
    with pytest.raises(ValueError):
        render_sft_record(_instance(), trace)


def test_task_kind_round_trips_through_value():
    for kind in TaskKind:
        assert TaskKind(kind.value) is kind


@settings(max_examples=50)
@given(st.lists(st.text(alphabet="ab ", min_size=1, max_size=8), min_size=1, max_size=6))
def test_render_think_body_line_count_tracks_markers(texts):
    events = [Step(i + 1, t) for i, t in enumerate(texts)]
    events.append(BacktrackMarker(1, "Wait. Back to step 1."))
    events.append(Step(2, "resume."))
    events.append(Conclusion("done."))
    body = render_think_body(events)
    assert body.count("\n") == 1
