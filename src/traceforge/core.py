"""Shared vocabulary for the toolkit: task identifiers, problem instances,
trace events, the tagged output grammar, and deterministic seed derivation.

Everything downstream (generators, solvers, the reward) speaks in terms of
these types, so they carry no task-specific logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

_MASK64 = (1 << 64) - 1

# odd constant used for index spreading, same one splitmix64 uses
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class TaskKind(str, enum.Enum):
    """Every task the toolkit knows about.

    The first three have full generate/solve/trace support; the geometry
    trio, color cube and self reference have generators and verifiers;
    zebra and list functions are verifier-only.
    """

    COUNTDOWN = "countdown"
    SUDOKU = "sudoku"
    ARC1D = "arc1d"
    GEOMETRY_ANGLE = "geometry_angle"
    GEOMETRY_ORTHOCENTER = "geometry_orthocenter"
    GEOMETRY_INCIRCLE = "geometry_incircle"
    COLOR_CUBE = "color_cube"
    SELF_REFERENCE = "self_reference"
    ZEBRA = "zebra"
    LIST_FUNCTIONS = "list_functions"


class GenerationError(RuntimeError):
    """Raised when a generator cannot produce a valid artifact in budget."""


class NoSolutionError(RuntimeError):
    """Raised when exact search proves (or gives up on) unsolvability."""


class MultipleSolutionsError(RuntimeError):
    """Raised when a puzzle that must be unique has more than one solution."""


def derive_seed(master: int, index: int) -> int:
    """Derive a per-item 64-bit seed from a master seed and an index.

    Splitmix-style: add an odd gamma multiple, then avalanche. For a fixed
    master the map index -> seed is a bijection on 64-bit values, so
    distinct indices never collide.
    """
    z = (master + index * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class ProblemInstance:
    """One generated problem: prompt text plus whatever the verifier needs."""

    id: int
    task: TaskKind
    prompt: str
    ground_truth: str
    seed: int
    meta: dict = field(default_factory=dict)


# --- trace events ------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    """A numbered reasoning step. ``index`` is 1-based."""

    index: int
    text: str


@dataclass(frozen=True)
class BacktrackMarker:
    """Marks abandoning the current branch and returning to an earlier step."""

    return_to_step: int
    text: str


@dataclass(frozen=True)
class Conclusion:
    text: str


TraceEvent = Union[Step, BacktrackMarker, Conclusion]


@dataclass
class ReasoningTrace:
    """A linearized search: ordered events, final answer, backtrack count."""

    events: tuple
    answer: str
    backtracks: int
    meta: dict = field(default_factory=dict)


@dataclass
class SftRecord:
    """One dataset row. Field order here is the JSON field order on disk."""

    instance_id: int
    task: TaskKind
    prompt: str
    completion: str
    backtracks: int
    seed: int
    correctness_label: Optional[str] = None


# --- tagged output grammar ---------------------------------------------------

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"
ANSWER_OPEN = "<answer>"
ANSWER_CLOSE = "</answer>"

PREAMBLE = "Let me solve this step by step."


@dataclass(frozen=True)
class TaggedOutput:
    """Result of scanning a completion for think/answer tag pairs.

    ``answer`` is the span between the first answer open tag and the first
    close tag that follows it, or None when no such pair exists. It is
    best-effort and populated even when the completion as a whole is not
    well formed.
    """

    answer: Optional[str]
    well_formed: bool


def _first_span(text: str, open_tag: str, close_tag: str) -> Optional[str]:
    start = text.find(open_tag)
    if start < 0:
        return None
    end = text.find(close_tag, start + len(open_tag))
    if end < 0:
        return None
    return text[start + len(open_tag):end]


def extract_tags(completion: str) -> TaggedOutput:
    """Scan a completion for the ``<think>``/``<answer>`` wrapper.

    Well-formed means each of the four tags occurs exactly once and they
    appear in the order think-open, think-close, answer-open, answer-close.
    That single rule covers missing tags, duplicated tags, interleaved
    nesting, and answer-before-think orderings.
    """
    well_formed = (
        completion.count(THINK_OPEN) == 1
        and completion.count(THINK_CLOSE) == 1
        and completion.count(ANSWER_OPEN) == 1
        and completion.count(ANSWER_CLOSE) == 1
    )
    if well_formed:
        t_open = completion.find(THINK_OPEN)
        t_close = completion.find(THINK_CLOSE)
        a_open = completion.find(ANSWER_OPEN)
        a_close = completion.find(ANSWER_CLOSE)
        well_formed = t_open < t_close < a_open < a_close
    return TaggedOutput(
        answer=_first_span(completion, ANSWER_OPEN, ANSWER_CLOSE),
        well_formed=well_formed,
    )


def render_think_body(events) -> str:
    """Join trace events into the text inside the think block.

    Events are joined by single spaces; each backtrack marker ends its
    line, so every return to an earlier step starts on a fresh line.
    """
    lines = []
    current: list[str] = []
    for ev in events:
        if isinstance(ev, Step):
            current.append(f"Step {ev.index}: {ev.text}")
        elif isinstance(ev, BacktrackMarker):
            current.append(ev.text)
            lines.append(" ".join(current))
            current = []
        elif isinstance(ev, Conclusion):
            current.append(ev.text)
        else:
            raise TypeError(f"unknown trace event: {ev!r}")
    lines.append(" ".join(current))
    return "\n".join(lines)


def render_completion(trace: ReasoningTrace) -> str:
    """Render a trace into the exact completion format used for training."""
    body = render_think_body(trace.events)
    return (
        f"{PREAMBLE}\n"
        f"{THINK_OPEN}\n"
        f"{body}\n"
        f"{THINK_CLOSE}\n"
        f"\n"
        f"{ANSWER_OPEN}{trace.answer}{ANSWER_CLOSE}"
    )


def render_sft_record(instance: ProblemInstance, trace: ReasoningTrace) -> SftRecord:
    """Pair an instance with its rendered trace as one dataset row.

    Raises ValueError when the trace was built for a different instance
    (detected via the instance id stamped into trace metadata).
    """
    traced_id = trace.meta.get("instance_id")
    if traced_id is not None and traced_id != instance.id:
        raise ValueError(
            f"trace belongs to instance {traced_id}, not {instance.id}"
        )
    markers = sum(1 for ev in trace.events if isinstance(ev, BacktrackMarker))
    if markers != trace.backtracks:
        raise ValueError(
            f"trace claims {trace.backtracks} backtracks but has {markers} markers"
        )
    return SftRecord(
        instance_id=instance.id,
        task=instance.task,
        prompt=instance.prompt,
        completion=render_completion(trace),
        backtracks=trace.backtracks,
        seed=instance.seed,
        correctness_label=None,
    )
