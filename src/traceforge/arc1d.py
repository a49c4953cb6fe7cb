"""One-dimensional grid transformation puzzles.

A task shows a few input/output example pairs produced by a hidden rule
drawn from a fixed pool, plus a test input. Generation guarantees that
exactly one rule in the pool explains all example pairs, so the intended
rule is recoverable. The solver scores every pool rule against the first
example (number of cells it predicts correctly) and tries rules in
descending score order, so plausible but wrong rules come first and make
good detours.

The rule analysis (:func:`_rule_analysis`) is shared: the solver reads
what :func:`generate`'s uniqueness test computed for the same examples.
A solve returns the solution path alone, and a wrong attempt's text is
made only when a detour takes it.

Grids are tuples of color digits 0..9; 0 is the background.
"""

from __future__ import annotations

import functools
from operator import eq
from typing import Callable, NamedTuple, Optional

from .core import (
    GenerationError,
    ProblemInstance,
    Rng,
    TaskKind,
)
from .search import (
    SearchNode,
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


def _single_block(grid):
    """(start, end) of the one run of nonzero cells, or None when the grid
    has no such run or several."""
    cells = [i for i, v in enumerate(grid) if v]
    if cells and cells[-1] - cells[0] == len(cells) - 1:
        return cells[0], cells[-1]
    return None


# --- primitive transforms ----------------------------------------------------
# Each is total: any grid tuple in, same-length grid tuple out.

def _shift(grid, offset):
    if offset >= 0:
        return ((0,) * offset + grid)[:len(grid)]
    return (grid + (0,) * -offset)[-offset:]


def _mirror(grid):
    return grid[::-1]


def _recolor(grid, src, dst):
    return tuple(dst if v == src else v for v in grid)


def _swap_colors(grid, a, b):
    return tuple(b if v == a else a if v == b else v for v in grid)


def _erase_color(grid, color):
    return tuple(0 if v == color else v for v in grid)


def _fill_gap(grid):
    # paint everything strictly between the outermost nonzero cells with
    # the color of the leftmost one
    cells = [i for i, v in enumerate(grid) if v]
    if len(cells) < 2:
        return grid
    first, last = cells[0], cells[-1]
    return grid[:first + 1] + (grid[first],) * (last - first - 1) + grid[last:]


def _move_block(grid, side):
    run = _single_block(grid)
    if run is None:
        return grid
    body = grid[run[0]:run[1] + 1]
    pad = (0,) * (len(grid) - len(body))
    return body + pad if side == "left" else pad + body


def _duplicate_pattern(grid):
    run = _single_block(grid)
    if run is None:
        return grid
    i, j = run
    return (grid[:j + 1] + grid[i:j + 1] + grid[2 * j + 2 - i:])[:len(grid)]


def _grow_block(grid, amount):
    run = _single_block(grid)
    if run is None:
        return grid
    j = run[1]
    amount = min(amount, len(grid) - j - 1)
    return grid[:j + 1] + (grid[j],) * amount + grid[j + 1 + amount:]


class TransformRule(NamedTuple):
    """A named, parameterized grid transform with a prose description."""

    name: str
    params: tuple
    description: str
    fn: Callable = None

    def apply(self, grid) -> tuple:
        return self.fn(tuple(grid), *self.params)


RULE_POOL = (
    TransformRule("shift_right", (1,), "shift everything right by 1", _shift),
    TransformRule("shift_right", (2,), "shift everything right by 2", _shift),
    TransformRule("shift_left", (-1,), "shift everything left by 1", _shift),
    TransformRule("shift_left", (-2,), "shift everything left by 2", _shift),
    TransformRule("mirror", (), "mirror the grid", _mirror),
    TransformRule("recolor", (1, 2), "recolor 1 to 2", _recolor),
    TransformRule("recolor", (2, 3), "recolor 2 to 3", _recolor),
    TransformRule("recolor", (3, 1), "recolor 3 to 1", _recolor),
    TransformRule("fill_gap", (), "fill the gap between the two markers", _fill_gap),
    TransformRule("move_block", ("right",), "move the block to the right edge", _move_block),
    TransformRule("move_block", ("left",), "move the block to the left edge", _move_block),
    TransformRule("duplicate", (), "duplicate the pattern to the right", _duplicate_pattern),
    TransformRule("erase", (1,), "erase color 1", _erase_color),
    TransformRule("erase", (2,), "erase color 2", _erase_color),
    TransformRule("swap", (1, 2), "swap colors 1 and 2", _swap_colors),
    TransformRule("grow", (1,), "grow the block by 1", _grow_block),
    TransformRule("grow", (2,), "grow the block by 2", _grow_block),
)


class Arc1dTask(NamedTuple):
    train_pairs: tuple  # ((input, output), ...)
    test_input: tuple
    hidden_rule: TransformRule


LENGTH_RANGE = (8, 24)
PAIRS_RANGE = (2, 4)
MAX_GENERATE_ATTEMPTS = 500


# --- input sampling ----------------------------------------------------------

def _scatter(rng, length, colors):
    """Sparse grid with 2 to 5 colored cells."""
    grid = [0] * length
    for pos in rng.sample(range(length), min(length, rng.randint(2, 5))):
        grid[pos] = colors[rng.randrange(len(colors))]
    return grid


def _sample_block(rng, length, margin):
    """A one-color block of 2 to 4 cells, ``margin`` cells clear of the end."""
    size = rng.randint(2, 4)
    start = rng.randint(0, length - size - margin)
    color = rng.randint(1, 9)
    grid = [0] * length
    grid[start:start + size] = [color] * size
    return grid


def _sample_input(rule: TransformRule, rng: Rng, length: int):
    """Draw one input grid suited to ``rule``'s family."""
    name = rule.name
    if name in ("shift_right", "shift_left", "mirror"):
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
        others = [v for v in range(1, 10) if v != color]
        other = others[rng.randrange(len(others))]
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
    else:  # grow
        grid = _sample_block(rng, length, margin=rule.params[0])
    return tuple(grid)


def _sample_visible(rule: TransformRule, rng: Rng, length: int):
    """(input, output) of the first of 20 draws on which ``rule`` acts
    visibly, or None."""
    for _ in range(20):
        grid = _sample_input(rule, rng, length)
        out = rule.apply(grid)
        if out != grid:
            return grid, out
    return None


@functools.lru_cache(maxsize=1)
def _rule_analysis(pairs):
    """Per pool rule, (its prediction on example 1, its first miss): the
    miss is (1-based example number, input, predicted output, expected
    output) of the first pair it gets wrong, or None when it fits.
    ``pairs`` is a tuple of (input, output) tuples; each rule is applied at
    most once to each pair it reaches. The latest result is kept for
    :func:`heuristic_solve`."""
    result = []
    for rule in RULE_POOL:
        first = miss = None
        for m, (inp, out) in enumerate(pairs, start=1):
            pred = rule.apply(inp)
            if first is None:
                first = pred
            if pred != out:
                miss = (m, inp, pred, out)
                break
        result.append((first, miss))
    return tuple(result)


def consistent_rules(pairs):
    """Pool rules that map every example input to its exact output."""
    analysis = _rule_analysis(tuple((tuple(i), tuple(o)) for i, o in pairs))
    return [rule for rule, (_, miss) in zip(RULE_POOL, analysis) if miss is None]


def generate(rng: Rng) -> Arc1dTask:
    """Sample a task whose examples identify the hidden rule uniquely."""
    for _ in range(MAX_GENERATE_ATTEMPTS):
        rule = RULE_POOL[rng.randrange(len(RULE_POOL))]
        length = rng.randint(*LENGTH_RANGE)
        pairs = []
        for _ in range(rng.randint(*PAIRS_RANGE)):
            pairs.append(_sample_visible(rule, rng, length))
            if pairs[-1] is None:
                break
        if pairs[-1] is None or consistent_rules(pairs) != [rule]:
            continue  # no visible example, or ambiguous examples: start over
        test = _sample_visible(rule, rng, length)
        if test is not None:
            return Arc1dTask(tuple(pairs), test[0], rule)
    raise GenerationError("could not sample an unambiguous arc1d task")


# --- solving -----------------------------------------------------------------

def render_grid(grid) -> str:
    return " ".join(map(str, grid))


def heuristic_solve(task: Arc1dTask):
    """Try pool rules in plausibility order; returns the solution path and
    the winning rule.

    Plausibility is cell agreement with the first example pair, ties broken
    by pool position, so the ordering is deterministic. The winner is the
    first rule in that order that fits every example; :func:`generate`
    proves it is the only one, and the rule analysis is shared with it.
    The path is four nodes: root, a study step, the attempt of the winner,
    and its application to the test input. A node's payload is the wrong
    attempts left to try after it, for :func:`_extend` to take: at the
    study node every one in plausibility order, as (pool index, first
    miss), and none at the winner's. No node has a key.
    """
    analysis = _rule_analysis(task.train_pairs)
    first_out = task.train_pairs[0][1]
    agreement = [sum(map(eq, first, first_out)) for first, _ in analysis]
    order = sorted(range(len(RULE_POOL)), key=agreement.__getitem__,
                   reverse=True)
    win = next(idx for idx in order if analysis[idx][1] is None)
    winner = RULE_POOL[win]

    return [
        SearchNode(""),
        SearchNode(
            "compare each example input to its output to work out the rule.",
            tuple((idx, analysis[idx][1]) for idx in order if idx != win)),
        SearchNode(f"try the rule '{winner.description}': "
                   f"it matches all {len(task.train_pairs)} examples.", ()),
        SearchNode(f"apply the rule '{winner.description}' to the test input: "
                   f"{render_grid(task.test_input)} becomes "
                   f"{render_grid(winner.apply(task.test_input))}."),
    ], winner


# --- traces ------------------------------------------------------------------

def _extend(attempts, taken, rng):
    """Try one wrong rule from the study node: a random one of its wrong
    ``attempts``, in plausibility order, whose pool index is not in
    ``taken``. The attempt's text shows its prediction on the first
    example its rule gets wrong, and the observation is that example's
    expected output. Returns (the pool index, the one attempt text, the
    observation), or None when no attempt is left."""
    candidates = [a for a in attempts if a[0] not in taken]
    if not candidates:
        return None
    idx, (m, inp, pred, out) = candidates[rng.randrange(len(candidates))]
    text = (f"try the rule '{RULE_POOL[idx].description}': on example {m}, "
            f"{render_grid(inp)} would become {render_grid(pred)}.")
    return idx, [text], (f"The expected output for example {m} is "
                         f"{render_grid(out)}.")


def make_trace(task: Arc1dTask, k: int, rng: Rng):
    """Trace the rule search with exactly ``k`` wrong attempts.

    Every detour tries one inconsistent rule and abandons it, so a detour
    is one wrong step and k is capped by the pool size minus the hidden
    rule.
    """
    if k >= len(RULE_POOL):
        raise ValueError(f"at most {len(RULE_POOL) - 1} detours are possible, got {k}")
    nodes, rule = heuristic_solve(task)
    path = solution_path(nodes)
    return linearize(nodes, path, select_detours(nodes, path, k, rng, _extend),
                     render_grid(rule.apply(task.test_input)))


# --- answer checking ---------------------------------------------------------

def parse_answer(text: str) -> Optional[tuple]:
    """Whitespace-separated ASCII color digits; anything else fails."""
    tokens = text.split()
    digits = "".join(tokens)
    # one ASCII digit per token; isdigit alone would pass "²" and "٣"
    if not (tokens and len(digits) == len(tokens)
            and digits.isascii() and digits.isdigit()):
        return None
    return tuple(map(int, digits))


def expected_output(task: Arc1dTask) -> tuple:
    return task.hidden_rule.apply(task.test_input)


def check(instance: ProblemInstance, text: str):
    """(parseable, correct): correct when the grid is the expected output.
    A ``meta["expected"]`` that is not a list of colors 0..9 raises
    ValueError."""
    parsed = parse_answer(text)
    if parsed is None:
        return False, False
    expected = instance.meta["expected"]
    if not (isinstance(expected, (list, tuple))
            and all(type(v) is int and 0 <= v <= 9 for v in expected)):
        raise ValueError("meta 'expected' must be a list of colors 0-9")
    return True, parsed == tuple(expected)


# --- instances ---------------------------------------------------------------

def format_prompt(task: Arc1dTask) -> str:
    lines = [PROMPT_HEADER]
    for m, (inp, out) in enumerate(task.train_pairs, start=1):
        lines.append(f"Example {m}: input {render_grid(inp)} -> output {render_grid(out)}")
    lines.append(f"Test input: {render_grid(task.test_input)}")
    lines.append(PROMPT_FOOTER)
    return "\n".join(lines)


def _instance(instance_id: int, seed: int, task: Arc1dTask) -> ProblemInstance:
    expected = expected_output(task)
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.ARC1D,
        prompt=format_prompt(task),
        ground_truth=render_grid(expected),
        seed=seed,
        meta={
            "train_pairs": [[list(i), list(o)] for i, o in task.train_pairs],
            "test_input": list(task.test_input),
            "rule": [task.hidden_rule.name, list(task.hidden_rule.params)],
            "expected": list(expected),
        },
    )


def build_instance(instance_id: int, seed: int) -> ProblemInstance:
    task = sample_named("arc1d", instance_id, seed, generate, Rng(seed))
    return _instance(instance_id, seed, task)


def build_traced(instance_id: int, seed: int, k: int):
    """A task whose trace carries exactly k wrong attempts: (instance, trace)."""
    task, trace = build_with_retries("arc1d", instance_id, seed, k,
                                     generate, make_trace)
    return _instance(instance_id, seed, task), trace
