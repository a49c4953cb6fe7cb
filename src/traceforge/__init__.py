"""Procedural reasoning tasks with verifiable rewards and
backtrack-controlled reasoning traces."""

from .core import (
    GenerationError,
    ProblemInstance,
    ReasoningTrace,
    SftRecord,
    TaggedOutput,
    TaskKind,
    derive_seed,
    extract_tags,
    render_completion,
    render_sft_record,
)
from .reward import ScoreBreakdown, classify, pass_at_1, score
from .search import SearchTree, select_detours, solution_path, strip_detours

__all__ = [
    "GenerationError",
    "ProblemInstance",
    "ReasoningTrace",
    "ScoreBreakdown",
    "SftRecord",
    "TaggedOutput",
    "TaskKind",
    "SearchTree",
    "classify",
    "derive_seed",
    "extract_tags",
    "pass_at_1",
    "render_completion",
    "render_sft_record",
    "score",
    "select_detours",
    "solution_path",
    "strip_detours",
]

__version__ = "0.1.0"
