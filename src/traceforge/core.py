"""Shared vocabulary for the toolkit: task identifiers, problem instances,
reasoning traces and their text format, the tagged output grammar,
deterministic seed derivation, and the digit string of a grid.

Everything downstream (generators, solvers, the reward) speaks in terms of
these types, so they carry no task-specific logic.
"""

from __future__ import annotations

import enum
import random
import re
from itertools import islice
from math import ceil, log
from typing import NamedTuple, Optional

_MASK64 = (1 << 64) - 1

# odd constant used for index spreading, same one splitmix64 uses
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class TaskKind(str, enum.Enum):
    """Every task the toolkit knows about; ``tasks.TASKS`` says which of
    them have generators and traced solvers."""

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


class Rng(random.Random):
    """The package's one source of random draws: the standard library's
    MT19937 seeding and ``getrandbits``, under CPython 3.11's ``randrange``,
    ``randint``, ``shuffle`` and ``sample``, which Python does not promise
    to keep. Each is inlined to one Python call; an n-way draw takes
    ``n.bit_length()`` bits and redraws while they reach ``n``."""

    def randrange(self, n):
        """An int from ``range(n)``; the package draws no other range."""
        if n <= 0:
            raise ValueError(f"empty range for randrange({n})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def randint(self, a, b):
        """An int from ``a`` to ``b``, both included."""
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return a + r

    def shuffle(self, x):
        """Fisher-Yates in place, from the last position down."""
        getrandbits = self.getrandbits
        for i in range(len(x) - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]

    def sample(self, population, k):
        """``k`` distinct members of ``population`` in selection order: from
        a shrinking pool, or, for a population larger than a k-member set,
        by redrawing any index already taken."""
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        getrandbits = self.getrandbits
        result = []
        if n <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0):
            pool = list(population)
            for left in range(n, n - k, -1):
                bits = left.bit_length()
                j = getrandbits(bits)
                while j >= left:
                    j = getrandbits(bits)
                result.append(pool[j])
                pool[j] = pool[left - 1]
        else:
            taken = set()
            bits = n.bit_length()
            while len(result) < k:
                j = getrandbits(bits)
                if j < n and j not in taken:
                    taken.add(j)
                    result.append(population[j])
        return result


class ProblemInstance(NamedTuple):
    """One generated problem: prompt text plus whatever the verifier needs."""

    id: int
    task: TaskKind
    prompt: str
    ground_truth: str
    seed: int
    meta: dict


def checked_text(name: str, value) -> str:
    """``value``, once it is a str that UTF-8 can encode: JSON can spell a
    lone surrogate (``"\\ud800"``), which no file can hold. Anything else
    raises ValueError naming ``name``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{name} is not UTF-8 text: {exc.reason} at index "
                         f"{exc.start}") from None
    return value


# --- digit grids -------------------------------------------------------------

# byte v -> the ASCII digit of v for 0..9; every other byte -> 0x80, which
# is not ASCII, so the decode in digit_string rejects it
_DIGITS = bytes(range(48, 58)) + b"\x80" * 246


def digit_string(cells) -> str:
    """The cells of a grid, ints 0..9, as one string of their digits:
    ``(0, 3, 1)`` reads ``"031"``. A cell outside 0..9 raises ValueError,
    so it never reads as a longer number or a control character."""
    try:
        return bytes(cells).translate(_DIGITS).decode("ascii")
    except ValueError:
        raise ValueError(f"grid cells must be 0-9, got {cells!r}") from None


# --- reasoning traces --------------------------------------------------------

# Opening of every backtrack; counting it recovers a completion's
# backtrack count when the trace itself is not at hand.
MARKER_PHRASE = "Wait, this doesn't lead to the correct solution."

# Template for every backtrack. The observation sentence is task-specific;
# the surrounding wording is fixed so traces are uniform across tasks.
BACKTRACK_TEMPLATE = (
    MARKER_PHRASE + " {observation} "
    "Let me go back to step {step} and keep thinking from there."
)

# Closing sentence of every trace.
CONCLUSION = "This matches the problem statement. This is the solution."


class Detour(NamedTuple):
    """One wrong excursion: the step it branches from (the trace returns
    there afterwards), the texts of the wrong steps it walks, and why the
    branch is dead."""

    resume_step: int        # 1-based number of the branch-point step
    steps: tuple            # wrong step texts, in walk order
    observation: str        # the task's reason for abandoning the branch


class ReasoningTrace(NamedTuple):
    """A solve with its detours: the solution path's step texts, the
    detours sorted by resume step (those at one step in selection order),
    the final answer, and the id of the instance it was built for, once
    known."""

    steps: tuple
    detours: tuple
    answer: str
    instance_id: Optional[int] = None

    @property
    def backtracks(self) -> int:
        return len(self.detours)


class SftRecord(NamedTuple):
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


# every tag occurrence; no two can overlap, since each starts with "<"
_TAG = re.compile(r"</?(?:think|answer)>")
_WELL_FORMED = [THINK_OPEN, THINK_CLOSE, ANSWER_OPEN, ANSWER_CLOSE]
# "<" that start no tag before the scan hands the rest of the text to one
# regex pass, so text dense in "<" costs no more than that pass
_STRAY_LIMIT = 16


class TaggedOutput(NamedTuple):
    """Result of scanning a completion for think/answer tag pairs.

    ``answer`` is the span between the first answer open tag and the first
    close tag that follows it, or None when no such pair exists. It is
    best-effort and populated even when the completion as a whole is not
    well formed. One scan for the tags decides ``well_formed`` and, when
    it holds, where ``answer`` starts and ends.
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
    nesting, and answer-before-think orderings. One scan decides it: the
    first five tag occurrences must be exactly those four. A well-formed
    answer is cut at the positions that scan found; on a malformed
    completion the best-effort span is searched for.

    The scan jumps from ``<`` to ``<`` and tries a tag only there, so its
    time does not grow with text that holds no ``<``. Once more than
    ``_STRAY_LIMIT`` of them start no tag, one regex pass reads the rest:
    text dense in ``<`` is the slowest kind, linear in its length.
    """
    found = []
    strays = 0
    pos = completion.find("<")
    while pos >= 0:
        m = _TAG.match(completion, pos)
        if m is not None:
            found.append(m)
            if len(found) == 5:
                break
            pos = completion.find("<", m.end())
        elif strays < _STRAY_LIMIT:
            strays += 1
            pos = completion.find("<", pos + 1)
        else:
            found += islice(_TAG.finditer(completion, pos), 5 - len(found))
            break
    if [m[0] for m in found] == _WELL_FORMED:
        return TaggedOutput(completion[found[2].end():found[3].start()], True)
    return TaggedOutput(_first_span(completion, ANSWER_OPEN, ANSWER_CLOSE),
                        False)


def render_think_body(trace: ReasoningTrace) -> str:
    """The text inside the think block.

    Steps are numbered from 1 and joined by single spaces. Each detour
    follows its resume step: its wrong steps continue the numbering, and
    the backtrack marker names the resume step, carries the observation
    and ends the line, so numbering resumes on a fresh line. The
    conclusion closes the last line. Raises ValueError for a detour that
    cannot be placed: its resume step is not a step of the trace, or it
    comes after a detour at a later step.
    """
    lines = []
    current: list[str] = []
    detours = iter(trace.detours)
    det = next(detours, None)
    for pos, text in enumerate(trace.steps, start=1):
        current.append(f"Step {pos}: {text}")
        while det is not None and det.resume_step == pos:
            current.extend(f"Step {i}: {t}"
                           for i, t in enumerate(det.steps, start=pos + 1))
            current.append(BACKTRACK_TEMPLATE.format(
                observation=det.observation, step=pos))
            lines.append(" ".join(current))
            current = []
            det = next(detours, None)
    if det is not None:
        raise ValueError(f"detour at step {det.resume_step} is off the "
                         f"{len(trace.steps)} steps or out of order")
    current.append(CONCLUSION)
    lines.append(" ".join(current))
    return "\n".join(lines)


def render_completion(trace: ReasoningTrace) -> str:
    """Render a trace into the exact completion format used for training."""
    body = render_think_body(trace)
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
    (detected via the trace's ``instance_id``).
    """
    traced_id = trace.instance_id
    if traced_id is not None and traced_id != instance.id:
        raise ValueError(
            f"trace belongs to instance {traced_id}, not {instance.id}"
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
