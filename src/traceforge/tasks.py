"""The task table: one :class:`TaskSpec` per task kind.

The pipeline, the reward, the CLI and ``scripts/show_trace.py`` all read
``TASKS``, so a task is described here once: how to generate an instance, how to build a
traced SFT record, how to check an answer, which prompt template dataset
manifests record, and which evaluation column the task reports in.
Adding a task means adding one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import arc1d, countdown, sudoku, xtasks
from .core import TaskKind


@dataclass(frozen=True)
class TaskSpec:
    kind: TaskKind
    # (instance_id, seed) -> ProblemInstance; None for verifier-only tasks
    build_instance: Optional[Callable]
    # (instance_id, seed, k) -> (ProblemInstance, ReasoningTrace); None for
    # tasks without a search-tree solver
    build_traced: Optional[Callable]
    # (instance, answer text) -> (parseable, correct)
    check: Callable
    prompt_template: Optional[str]
    column: str


TASKS = {spec.kind: spec for spec in (
    TaskSpec(TaskKind.COUNTDOWN, countdown.build_instance,
             countdown.build_traced, countdown.check,
             countdown.PROMPT_TEMPLATE, "CD"),
    TaskSpec(TaskKind.SUDOKU, sudoku.build_instance, sudoku.build_traced,
             sudoku.check, sudoku.PROMPT_TEMPLATE, "SDK"),
    TaskSpec(TaskKind.ARC1D, arc1d.build_instance, arc1d.build_traced,
             arc1d.check, arc1d.PROMPT_HEADER, "ARC"),
    # the three geometry subtasks pool into one column
    TaskSpec(TaskKind.GEOMETRY_ANGLE, xtasks.build_angle_instance, None,
             xtasks.check_geometry, xtasks.ANGLE_PROMPT, "AG"),
    TaskSpec(TaskKind.GEOMETRY_ORTHOCENTER, xtasks.build_orthocenter_instance,
             None, xtasks.check_geometry, xtasks.ORTHOCENTER_PROMPT, "AG"),
    TaskSpec(TaskKind.GEOMETRY_INCIRCLE, xtasks.build_incircle_instance, None,
             xtasks.check_geometry, xtasks.INCIRCLE_PROMPT, "AG"),
    TaskSpec(TaskKind.COLOR_CUBE, xtasks.build_cube_instance, None,
             xtasks.check_name, xtasks.CUBE_PROMPT, "CCR"),
    TaskSpec(TaskKind.SELF_REFERENCE, xtasks.build_selfref_instance, None,
             xtasks.check_selfref, xtasks.SELFREF_PROMPT, "SR"),
    TaskSpec(TaskKind.ZEBRA, None, None, xtasks.check_name, None, "ZP"),
    TaskSpec(TaskKind.LIST_FUNCTIONS, None, None, xtasks.check_list, None,
             "LF"),
)}
