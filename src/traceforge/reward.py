"""Rule-based verifiable reward for task completions.

A completion earns a format score of 0.1 when its think/answer tags are
well formed, and an answer score of 0.9 when the extracted answer verifies
exactly against the instance. By default the answer score is gated on the
format score (a malformed completion totals 0 even if its answer happens
to be right), so totals land in {0, 0.1, 1.0}; with gating off the answer
contributes independently.

Every completion also gets one of three categories: ``correct``,
``incorrect`` (well formed and parseable, wrong answer), and
``incorrect_format`` (broken tags or an answer the task grammar cannot
parse).
"""

from __future__ import annotations

from typing import NamedTuple

from .core import ProblemInstance, extract_tags
from .tasks import TASKS

CORRECT = "correct"
INCORRECT = "incorrect"
INCORRECT_FORMAT = "incorrect_format"

CATEGORIES = (CORRECT, INCORRECT, INCORRECT_FORMAT)


FORMAT_POINTS = 0.1
ANSWER_POINTS = 0.9

# Longest answer any task grammar is asked to read: about six times the
# longest ground truth (a sudoku grid, 161 characters), and short enough
# that no answer reaches int()'s 4,300-digit conversion limit
MAX_ANSWER_CHARS = 1000


class ScoreBreakdown(NamedTuple):
    format_score: float
    answer_score: float
    total: float
    category: str


# every breakdown a score can return; they are immutable, so each call hands
# out one of these instead of building its own
_CORRECT = ScoreBreakdown(FORMAT_POINTS, ANSWER_POINTS,
                          FORMAT_POINTS + ANSWER_POINTS, CORRECT)
_INCORRECT = ScoreBreakdown(FORMAT_POINTS, 0.0, FORMAT_POINTS, INCORRECT)
_FORMAT_ONLY = ScoreBreakdown(FORMAT_POINTS, 0.0, FORMAT_POINTS,
                              INCORRECT_FORMAT)
_UNGATED_RIGHT = ScoreBreakdown(0.0, ANSWER_POINTS, ANSWER_POINTS,
                                INCORRECT_FORMAT)
_ZERO = ScoreBreakdown(0.0, 0.0, 0.0, INCORRECT_FORMAT)


def check_answer(instance: ProblemInstance, answer_text: str):
    """(parseable, correct) of an answer string under the task's grammar;
    an answer is correct only if it parses.

    The task's check reads the answer stripped of surrounding whitespace.
    An answer longer than MAX_ANSWER_CHARS once stripped is unparseable.
    A malformed instance raises ValueError naming the task and the id; no
    answer does. Malformed means a ground truth or meta field the check
    cannot read, or a meta field of the wrong shape: every traced task's
    check validates the field it compares with, once the answer parses.
    """
    answer_text = answer_text.strip()
    if len(answer_text) > MAX_ANSWER_CHARS:
        return False, False
    try:
        return TASKS[instance.task].check(instance, answer_text)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"malformed {instance.task.value} instance "
                         f"{instance.id}: {type(exc).__name__}: {exc}") from exc


def score(instance: ProblemInstance, completion: str,
          gated: bool = True) -> ScoreBreakdown:
    """Score one completion against its instance.

    With ``gated`` the answer points require well-formed tags.
    """
    answer, well_formed = extract_tags(completion)
    if answer is None:
        return _ZERO
    parseable, right = check_answer(instance, answer)
    if well_formed:
        if right:
            return _CORRECT
        return _INCORRECT if parseable else _FORMAT_ONLY
    return _UNGATED_RIGHT if right and not gated else _ZERO


def pass_at_1(breakdowns) -> float:
    """Fraction of completions whose category is ``correct``."""
    items = list(breakdowns)
    if not items:
        raise ValueError("no scores to aggregate")
    return sum(1 for b in items if b.category == CORRECT) / len(items)


# --- evaluation table --------------------------------------------------------

# the columns of ``TaskSpec.column``, in table order
COLUMN_ORDER = ("AG", "CD", "ARC", "SDK", "CCR", "ZP", "LF", "SR")


def checked_completion(item):
    """A {"instance_id", "completion"} item, once its id is an int (not a
    bool) and its completion a str; anything else raises ValueError."""
    iid, text = item["instance_id"], item["completion"]
    if type(iid) is not int:
        raise ValueError(f"instance_id must be a JSON integer, got {iid!r}")
    if not isinstance(text, str):
        raise ValueError(f"completion must be a string, got {text!r}")
    return item


def pair_completions(instances, items) -> list:
    """``(instance, completion text)`` for each {"instance_id", "completion"}
    item (see :func:`checked_completion`), in item order. An id that no
    instance has, or that two instances share, raises ValueError."""
    by_id = {}
    for inst in instances:
        first = by_id.setdefault(inst.id, inst)
        if first is not inst:
            raise ValueError(f"instance id {inst.id} is used twice, by "
                             f"{first.task.value} and by {inst.task.value}")
    pairs = []
    for item in map(checked_completion, items):
        iid = item["instance_id"]
        if iid not in by_id:
            raise ValueError(f"completion references unknown instance {iid}")
        pairs.append((by_id[iid], item["completion"]))
    return pairs


def evaluate(instances, completions) -> dict:
    """Pass rate per evaluation column.

    ``completions`` is a list of {"instance_id", "completion"} items; an
    instance's last item is its answer. Instances without a completion
    count as failures; completions without an instance raise ValueError.
    """
    answers = {inst.id: text
               for inst, text in pair_completions(instances, completions)}
    scores: dict = {}
    for inst in instances:
        scores.setdefault(TASKS[inst.task].column, []).append(
            score(inst, answers.get(inst.id, "")))
    return {col: pass_at_1(scores[col])
            for col in COLUMN_ORDER if col in scores}


def render_eval_table(rates: dict) -> str:
    """Fixed-order single-row table of pass rates."""
    columns = [col for col in COLUMN_ORDER if col in rates]
    if not columns:
        return "(no results)"
    header = "  ".join(f"{col:>6}" for col in columns)
    row = "  ".join(f"{rates[col]:6.3f}" for col in columns)
    return header + "\n" + row
