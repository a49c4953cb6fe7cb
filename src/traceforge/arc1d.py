"""One-dimensional grid transformation puzzles.

A task shows a few input/output example pairs produced by a hidden rule
drawn from a fixed pool, plus a test input. Generation guarantees that
exactly one rule in the pool explains all example pairs, so the intended
rule is recoverable. The solver scores every pool rule against the first
example (fraction of cells it predicts correctly) and tries rules in
descending score order, which yields a natural search tree: plausible but
wrong rules come first and make good detours.

Grids are tuples of color digits 0..9; 0 is the background.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    GenerationError,
    MultipleSolutionsError,
    NoSolutionError,
    ProblemInstance,
    TaskKind,
)
from .search import (
    SearchTree,
    build_with_retries,
    linearize,
    sample_named,
    select_detours,
    solution_path,
)

PROMPT_HEADER = (
    "Find the rule that turns each input grid into its output grid, "
    "then apply that rule to the test input."
)
PROMPT_FOOTER = "Give the output grid as digits separated by single spaces."


def _blocks(grid):
    """Maximal runs of nonzero cells as (start, end) inclusive pairs."""
    runs = []
    start = None
    for i, v in enumerate(grid):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(grid) - 1))
    return runs


# --- primitive transforms ----------------------------------------------------
# Each is total: any grid in, same-length grid out.

def _shift(grid, offset):
    n = len(grid)
    out = [0] * n
    for i, v in enumerate(grid):
        if v and 0 <= i + offset < n:
            out[i + offset] = v
    return tuple(out)


def _mirror(grid):
    return tuple(reversed(grid))


def _recolor(grid, src, dst):
    return tuple(dst if v == src else v for v in grid)


def _swap_colors(grid, a, b):
    return tuple(b if v == a else a if v == b else v for v in grid)


def _erase_color(grid, color):
    return tuple(0 if v == color else v for v in grid)


def _fill_gap(grid):
    # paint everything strictly between the outermost nonzero cells with
    # the color of the leftmost one
    runs = _blocks(grid)
    if not runs:
        return tuple(grid)
    first, last = runs[0][0], runs[-1][1]
    out = list(grid)
    for i in range(first + 1, last):
        out[i] = grid[first]
    return tuple(out)


def _single_block(grid):
    runs = _blocks(grid)
    return runs[0] if len(runs) == 1 else None


def _move_block(grid, side):
    run = _single_block(grid)
    if run is None:
        return tuple(grid)
    i, j = run
    body = grid[i:j + 1]
    out = [0] * len(grid)
    start = 0 if side == "left" else len(grid) - len(body)
    out[start:start + len(body)] = body
    return tuple(out)


def _duplicate_pattern(grid):
    run = _single_block(grid)
    if run is None:
        return tuple(grid)
    i, j = run
    body = grid[i:j + 1]
    out = list(grid)
    for k, v in enumerate(body):
        pos = j + 1 + k
        if pos >= len(grid):
            break
        out[pos] = v
    return tuple(out)


def _grow_block(grid, amount):
    run = _single_block(grid)
    if run is None:
        return tuple(grid)
    _, j = run
    out = list(grid)
    for pos in range(j + 1, min(j + 1 + amount, len(grid))):
        out[pos] = grid[j]
    return tuple(out)


@dataclass(frozen=True)
class TransformRule:
    """A named, parameterized grid transform with a prose description."""

    name: str
    params: tuple
    description: str
    fn: Callable = None

    def apply(self, grid) -> tuple:
        return self.fn(tuple(grid), *self.params)


def _rule(name, params, description, fn):
    return TransformRule(name, tuple(params), description, fn)


RULE_POOL = (
    _rule("shift_right", (1,), "shift everything right by 1", _shift),
    _rule("shift_right", (2,), "shift everything right by 2", _shift),
    _rule("shift_left", (-1,), "shift everything left by 1", _shift),
    _rule("shift_left", (-2,), "shift everything left by 2", _shift),
    _rule("mirror", (), "mirror the grid", _mirror),
    _rule("recolor", (1, 2), "recolor 1 to 2", _recolor),
    _rule("recolor", (2, 3), "recolor 2 to 3", _recolor),
    _rule("recolor", (3, 1), "recolor 3 to 1", _recolor),
    _rule("fill_gap", (), "fill the gap between the two markers", _fill_gap),
    _rule("move_block", ("right",), "move the block to the right edge", _move_block),
    _rule("move_block", ("left",), "move the block to the left edge", _move_block),
    _rule("duplicate", (), "duplicate the pattern to the right", _duplicate_pattern),
    _rule("erase", (1,), "erase color 1", _erase_color),
    _rule("erase", (2,), "erase color 2", _erase_color),
    _rule("swap", (1, 2), "swap colors 1 and 2", _swap_colors),
    _rule("grow", (1,), "grow the block by 1", _grow_block),
    _rule("grow", (2,), "grow the block by 2", _grow_block),
)


@dataclass(frozen=True)
class Arc1dTask:
    train_pairs: tuple  # ((input, output), ...)
    test_input: tuple
    hidden_rule: TransformRule


LENGTH_RANGE = (8, 24)
PAIRS_RANGE = (2, 4)
MAX_GENERATE_ATTEMPTS = 500


# --- input sampling ----------------------------------------------------------

def _scatter(rng, length, colors, lo=2, hi=5):
    """Sparse grid with a few colored cells."""
    grid = [0] * length
    for pos in rng.sample(range(length), min(length, rng.randint(lo, hi))):
        grid[pos] = colors[rng.randrange(len(colors))]
    return grid


def _sample_block(rng, length, max_len=4, margin=0):
    """One uniform-colored block leaving ``margin`` free cells on the right."""
    size = rng.randint(2, max_len)
    start = rng.randint(0, length - size - margin)
    color = rng.randint(1, 9)
    grid = [0] * length
    grid[start:start + size] = [color] * size
    return grid


def _sample_input(rule: TransformRule, rng: random.Random, length: int):
    """Draw an input on which ``rule`` acts visibly, or None to retry."""
    name = rule.name
    if name in ("shift_right", "shift_left"):
        grid = _scatter(rng, length, list(range(1, 10)))
    elif name == "mirror":
        grid = _scatter(rng, length, list(range(1, 10)))
    elif name == "recolor":
        src, dst = rule.params
        grid = _scatter(rng, length, [src, dst, rng.randint(1, 9)])
        grid[rng.randrange(length)] = src
        grid[rng.randrange(length)] = dst
    elif name == "swap":
        a, b = rule.params
        grid = _scatter(rng, length, [a, b])
        grid[rng.randrange(length)] = a
        grid[rng.randrange(length)] = b
    elif name == "erase":
        color = rule.params[0]
        other = rng.choice([v for v in range(1, 10) if v != color])
        grid = _scatter(rng, length, [color, other])
        grid[rng.randrange(length)] = color
        grid[rng.randrange(length)] = other
    elif name == "fill_gap":
        color = rng.randint(1, 9)
        gap = rng.randint(3, max(3, length - 3))
        start = rng.randint(0, length - gap - 2)
        grid = [0] * length
        grid[start] = color
        grid[start + gap + 1] = color
    elif name == "move_block":
        grid = _sample_block(rng, length, margin=1)
    elif name == "duplicate":
        grid = _sample_block(rng, length, margin=2)
    elif name == "grow":
        grid = _sample_block(rng, length, margin=rule.params[0])
    else:
        raise ValueError(f"unknown rule family {name}")
    if rule.apply(grid) == tuple(grid):
        return None  # invisible action, resample
    return tuple(grid)


def _first_mismatch(rule, pairs):
    """(1-based example number, input, expected output) of the first pair
    the rule gets wrong, or None when it maps every input to its output."""
    for m, (inp, out) in enumerate(pairs, start=1):
        if rule.apply(inp) != tuple(out):
            return m, inp, out
    return None


def consistent_rules(pairs):
    """Pool rules that map every example input to its exact output."""
    return [r for r in RULE_POOL if _first_mismatch(r, pairs) is None]


def generate(rng: random.Random) -> Arc1dTask:
    """Sample a task whose examples identify the hidden rule uniquely."""
    for _ in range(MAX_GENERATE_ATTEMPTS):
        rule = RULE_POOL[rng.randrange(len(RULE_POOL))]
        length = rng.randint(*LENGTH_RANGE)
        n_pairs = rng.randint(*PAIRS_RANGE)
        pairs = []
        ok = True
        for _ in range(n_pairs):
            grid = None
            for _ in range(20):
                grid = _sample_input(rule, rng, length)
                if grid is not None:
                    break
            if grid is None:
                ok = False
                break
            pairs.append((grid, rule.apply(grid)))
        if not ok:
            continue
        if consistent_rules(pairs) != [rule]:
            continue  # ambiguous examples, start over
        test_input = None
        for _ in range(20):
            test_input = _sample_input(rule, rng, length)
            if test_input is not None:
                break
        if test_input is None:
            continue
        return Arc1dTask(tuple(pairs), test_input, rule)
    raise GenerationError("could not sample an unambiguous arc1d task")


# --- solving -----------------------------------------------------------------

def render_grid(grid) -> str:
    return " ".join(str(v) for v in grid)


def _agreement(rule, pair) -> float:
    """Fraction of cells the rule predicts correctly on one pair."""
    inp, out = pair
    pred = rule.apply(inp)
    return sum(1 for a, b in zip(pred, out) if a == b) / len(out)


def heuristic_solve(task: Arc1dTask):
    """Try pool rules in plausibility order; build the tree of attempts.

    Plausibility is cell agreement with the first example pair, ties broken
    by pool position, so the ordering is deterministic. The tree is: root,
    a study step, one attempt child per rule in that order, and under the
    first fully consistent attempt the application to the test input.
    Raises NoSolutionError when no pool rule explains every example, and
    MultipleSolutionsError when several do (the task did not come from
    :func:`generate`).
    """
    first = task.train_pairs[0]
    order = sorted(range(len(RULE_POOL)),
                   key=lambda idx: (-_agreement(RULE_POOL[idx], first), idx))
    misses = [_first_mismatch(rule, task.train_pairs) for rule in RULE_POOL]
    fitting = [idx for idx in order if misses[idx] is None]
    if not fitting:
        raise NoSolutionError("no pool rule is consistent with all examples")
    if len(fitting) > 1:
        names = ", ".join(repr(RULE_POOL[idx].description) for idx in fitting)
        raise MultipleSolutionsError(f"pool rules {names} all fit every example")
    winner = fitting[0]

    tree = SearchTree()
    root = tree.add_node("")
    study = tree.add_node(
        "compare each example input to its output to work out the rule.",
        parent=root,
    )
    answer = RULE_POOL[winner].apply(task.test_input)
    winner_node = None
    for idx in order:
        rule = RULE_POOL[idx]
        if idx == winner:
            text = (f"try the rule '{rule.description}': "
                    f"it matches all {len(task.train_pairs)} examples.")
            winner_node = tree.add_node(text, parent=study, payload=rule)
        else:
            m, inp, _ = misses[idx]
            text = (f"try the rule '{rule.description}': on example {m}, "
                    f"{render_grid(inp)} would become "
                    f"{render_grid(rule.apply(inp))}.")
            tree.add_node(text, parent=study, payload=rule)
    tree.add_node(
        f"apply the rule '{RULE_POOL[winner].description}' to the test input: "
        f"{render_grid(task.test_input)} becomes {render_grid(answer)}.",
        parent=winner_node,
        is_solution=True,
        payload=RULE_POOL[winner],
    )
    return tree, RULE_POOL[winner]


# --- traces ------------------------------------------------------------------

def _observe(task: Arc1dTask, wrong_nodes) -> str:
    """Why a detour is dead: the first example its rule gets wrong."""
    m, _, out = _first_mismatch(wrong_nodes[-1].payload, task.train_pairs)
    return f"The expected output for example {m} is {render_grid(out)}."


def make_trace(task: Arc1dTask, k: int, rng: random.Random):
    """Trace the rule search with exactly ``k`` wrong attempts.

    Every detour tries one inconsistent rule and abandons it; attempt
    nodes have no children, so a detour is one wrong node and k is capped
    by the pool size minus the hidden rule.
    """
    if k >= len(RULE_POOL):
        raise ValueError(f"at most {len(RULE_POOL) - 1} detours are possible, got {k}")
    tree, rule = heuristic_solve(task)
    path = solution_path(tree)
    plan = select_detours(tree, path, k, rng)
    answer = render_grid(rule.apply(task.test_input))
    return linearize(tree, path, plan.exact(), answer,
                     lambda det, wrong: _observe(task, wrong))


# --- answer checking ---------------------------------------------------------

def parse_answer(text: str) -> Optional[tuple]:
    """Whitespace-separated ASCII color digits; anything else fails."""
    tokens = text.strip().split()
    if not tokens:
        return None
    out = []
    for tok in tokens:
        if len(tok) == 1 and "0" <= tok <= "9":
            out.append(int(tok))
        else:
            return None
    return tuple(out)


def expected_output(task: Arc1dTask) -> tuple:
    return task.hidden_rule.apply(task.test_input)


def check(instance: ProblemInstance, text: str):
    """(parseable, correct): correct when the grid is the expected output."""
    parsed = parse_answer(text)
    if parsed is None:
        return False, False
    return True, parsed == tuple(instance.meta["expected"])


# --- instances ---------------------------------------------------------------

def format_prompt(task: Arc1dTask) -> str:
    lines = [PROMPT_HEADER]
    for m, (inp, out) in enumerate(task.train_pairs, start=1):
        lines.append(f"Example {m}: input {render_grid(inp)} -> output {render_grid(out)}")
    lines.append(f"Test input: {render_grid(task.test_input)}")
    lines.append(PROMPT_FOOTER)
    return "\n".join(lines)


def _instance(instance_id: int, seed: int, task: Arc1dTask) -> ProblemInstance:
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.ARC1D,
        prompt=format_prompt(task),
        ground_truth=render_grid(expected_output(task)),
        seed=seed,
        meta={
            "train_pairs": [[list(i), list(o)] for i, o in task.train_pairs],
            "test_input": list(task.test_input),
            "rule": [task.hidden_rule.name, list(task.hidden_rule.params)],
            "expected": list(expected_output(task)),
        },
    )


def task_from_instance(instance: ProblemInstance) -> Arc1dTask:
    name, params = instance.meta["rule"]
    rule = next(r for r in RULE_POOL
                if r.name == name and list(r.params) == list(params))
    return Arc1dTask(
        tuple((tuple(i), tuple(o)) for i, o in instance.meta["train_pairs"]),
        tuple(instance.meta["test_input"]),
        rule,
    )


def build_instance(instance_id: int, seed: int) -> ProblemInstance:
    task = sample_named("arc1d", instance_id, seed, generate,
                        random.Random(seed))
    return _instance(instance_id, seed, task)


def build_traced(instance_id: int, seed: int, k: int):
    """A task whose trace carries exactly k wrong attempts: (instance, trace)."""
    task, trace = build_with_retries("arc1d", instance_id, seed, k,
                                     generate, make_trace)
    return _instance(instance_id, seed, task), trace
