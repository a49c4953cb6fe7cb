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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ScoreBreakdown:
    format_score: float
    answer_score: float
    total: float
    category: str


def check_answer(instance: ProblemInstance, answer_text: str):
    """(parseable, correct) of an answer string under the task's grammar.

    An answer longer than MAX_ANSWER_CHARS once stripped is unparseable.
    """
    if len(answer_text.strip()) > MAX_ANSWER_CHARS:
        return False, False
    return TASKS[instance.task].check(instance, answer_text)


def score(instance: ProblemInstance, completion: str,
          gated: bool = True) -> ScoreBreakdown:
    """Score one completion against its instance.

    With ``gated`` the answer points require well-formed tags.
    """
    tags = extract_tags(completion)
    format_score = FORMAT_POINTS if tags.well_formed else 0.0
    parseable = False
    right = False
    if tags.answer is not None:
        parseable, right = check_answer(instance, tags.answer.strip())
    eligible = tags.well_formed or not gated
    answer_score = ANSWER_POINTS if (right and eligible) else 0.0
    if tags.well_formed and parseable:
        category = CORRECT if right else INCORRECT
    else:
        category = INCORRECT_FORMAT
    return ScoreBreakdown(format_score, answer_score,
                          format_score + answer_score, category)


def classify(instance: ProblemInstance, completion: str) -> str:
    return score(instance, completion).category


def pass_at_1(breakdowns) -> float:
    """Fraction of completions whose category is ``correct``."""
    items = list(breakdowns)
    if not items:
        raise ValueError("no scores to aggregate")
    return sum(1 for b in items if b.category == CORRECT) / len(items)


# --- evaluation table --------------------------------------------------------

# the columns of ``TaskSpec.column``, in table order
COLUMN_ORDER = ("AG", "CD", "ARC", "SDK", "CCR", "ZP", "LF", "SR")


def evaluate(instances, completions) -> dict:
    """Pass rate per evaluation column.

    ``completions`` maps instance id -> completion text (or is a list of
    {"instance_id", "completion"} items). Instances without a completion
    count as failures; completions without an instance raise ValueError.
    """
    if not isinstance(completions, dict):
        completions = {int(c["instance_id"]): c["completion"]
                       for c in completions}
    by_id = {inst.id: inst for inst in instances}
    for iid in completions:
        if iid not in by_id:
            raise ValueError(f"completion references unknown instance {iid}")
    hits: dict = {}
    totals: dict = {}
    for inst in instances:
        column = TASKS[inst.task].column
        totals[column] = totals.get(column, 0) + 1
        text = completions.get(inst.id)
        if text is None:
            continue
        if score(inst, text).category == CORRECT:
            hits[column] = hits.get(column, 0) + 1
    return {col: hits.get(col, 0) / totals[col]
            for col in COLUMN_ORDER if col in totals}


def render_eval_table(rates: dict) -> str:
    """Fixed-order single-row table of pass rates."""
    columns = [col for col in COLUMN_ORDER if col in rates]
    if not columns:
        return "(no results)"
    header = "  ".join(f"{col:>6}" for col in columns)
    row = "  ".join(f"{rates[col]:6.3f}" for col in columns)
    return header + "\n" + row
