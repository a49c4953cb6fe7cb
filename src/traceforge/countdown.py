"""Countdown arithmetic puzzles: reach a target by combining numbers with
+ - * /, each number used at most once, every intermediate value a positive
integer and every division exact.

Generation works backwards: random legal combines of a few sampled numbers
give a reachable target. Solving is exhaustive DFS over combine moves with
dead-state memoization, which both finds the canonical solution and proves
unsolvability when there is none. Answers are verified only by
:func:`check`, through :func:`parse_answer`.
"""

from __future__ import annotations

import ast
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    GenerationError,
    NoSolutionError,
    ProblemInstance,
    TaskKind,
)
from .search import (
    MAX_DETOUR_DEPTH,
    Detour,
    SearchTree,
    build_with_retries,
    linearize,
    select_detours,
    solution_path,
)

PROMPT_TEMPLATE = (
    "Using the numbers {numbers}, create an expression that equals {target}. "
    "You can only use each number once, and may combine them with +, -, * and /. "
    "Give only the expression, without an equals sign."
)


@dataclass(frozen=True)
class CountdownPuzzle:
    numbers: tuple
    target: int


COUNT_RANGE = (4, 6)        # how many numbers a puzzle offers
VALUE_RANGE = (1, 99)
TARGET_RANGE = (10, 999)
NODE_BUDGET = 200_000       # DFS states before giving up
MAX_GENERATE_ATTEMPTS = 500


@dataclass(frozen=True)
class ArithExpr:
    """Expression tree over puzzle numbers. Leaves store an index into
    ``puzzle.numbers``; internal nodes store one of ``+ - * /``."""

    op: Optional[str] = None
    index: Optional[int] = None
    left: Optional["ArithExpr"] = None
    right: Optional["ArithExpr"] = None

    @staticmethod
    def leaf(index: int) -> "ArithExpr":
        return ArithExpr(index=index)

    @staticmethod
    def combine(op: str, left: "ArithExpr", right: "ArithExpr") -> "ArithExpr":
        if op not in "+-*/" or len(op) != 1:
            raise ValueError(f"unknown operator {op!r}")
        return ArithExpr(op=op, left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def render(self, numbers) -> str:
        """Infix text with the fewest parentheses that preserve value."""
        text, _ = self._render(numbers)
        return text

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2}

    def _render(self, numbers):
        if self.is_leaf:
            return str(numbers[self.index]), 3
        lhs, lp = self.left._render(numbers)
        rhs, rp = self.right._render(numbers)
        prec = self._PREC[self.op]
        if lp < prec:
            lhs = f"({lhs})"
        # - and / are left-associative, so an equal-precedence right child
        # still needs parentheses under them
        if rp < prec or (rp == prec and self.op in "-/"):
            rhs = f"({rhs})"
        return f"{lhs} {self.op} {rhs}", prec


# --- moves -------------------------------------------------------------------
#
# A move combines the values at positions i < j into one result. Orientation
# for - and / is forced by positivity and exact division, so each (pair, op)
# yields at most one move. Move order is the solver's child order: pairs
# lexicographic, operators + - * /. Determinism over speed.

def legal_moves(values):
    """Yield (i, j, op, x, y, result, swapped) for every legal combine.

    ``x op y = result`` is the display orientation; ``swapped`` is True when
    x came from position j.
    """
    n = len(values)
    for i in range(n - 1):
        vi = values[i]
        for j in range(i + 1, n):
            vj = values[j]
            yield (i, j, "+", vi, vj, vi + vj, False)
            if vi > vj:
                yield (i, j, "-", vi, vj, vi - vj, False)
            elif vj > vi:
                yield (i, j, "-", vj, vi, vj - vi, True)
            yield (i, j, "*", vi, vj, vi * vj, False)
            if vi % vj == 0:
                yield (i, j, "/", vi, vj, vi // vj, False)
            elif vj % vi == 0:
                yield (i, j, "/", vj, vi, vj // vi, True)


def _apply_move(values, move):
    i, j, _, _, _, result, _ = move
    nxt = [values[m] for m in range(len(values)) if m != i and m != j]
    nxt.append(result)
    return nxt


def reachable(values, target) -> bool:
    """Exact reachability of ``target`` from a value multiset."""
    return (target in values
            or _find_solution(list(values), target, float("inf")) is not None)


# --- generation --------------------------------------------------------------

def _random_combine(rng: random.Random, values) -> None:
    """Merge two random values in place with a random legal operator."""
    a, b = rng.sample(range(len(values)), 2)
    va, vb = values[a], values[b]
    # the draw below indexes this list, so its order (+ * - /) fixes which
    # puzzle a seed gives
    options = [va + vb, va * vb]
    if va != vb:
        options.append(abs(va - vb))
    if va % vb == 0:
        options.append(va // vb)
    elif vb % va == 0:
        options.append(vb // va)
    value = options[rng.randrange(len(options))]
    for pos in sorted((a, b), reverse=True):
        values.pop(pos)
    values.append(value)


def generate(rng: random.Random) -> CountdownPuzzle:
    """Sample a puzzle whose target some combination of its numbers reaches.

    Targets that already appear among the puzzle numbers are rejected so no
    puzzle is solvable with zero moves.
    """
    lo_t, hi_t = TARGET_RANGE
    for _ in range(MAX_GENERATE_ATTEMPTS):
        n = rng.randint(*COUNT_RANGE)
        numbers = tuple(rng.randint(*VALUE_RANGE) for _ in range(n))
        ops = rng.randint(1, n - 1)
        values = [numbers[i] for i in rng.sample(range(n), ops + 1)]
        for _ in range(ops):
            _random_combine(rng, values)
        value = values[0]
        if not (lo_t <= value <= hi_t):
            continue
        if value in numbers:
            continue
        return CountdownPuzzle(numbers, value)
    raise GenerationError("could not sample a countdown puzzle within budget")


# --- solving -----------------------------------------------------------------

class _BudgetExhausted(Exception):
    pass


def _find_solution(values, target, budget):
    """First solution in move order, as the list of moves taken, or None.

    Same move order as :func:`legal_moves`, but with the enumeration
    inlined and the value list mutated in place; this loop dominates
    record-building time.
    """
    dead = set()
    steps = []
    visits = 0

    def pair_hit(a, b):
        # The move, if any, that takes the two-value state [a, b] to the
        # target, trying ops in the canonical order.
        if a + b == target:
            return (0, 1, "+", a, b, target, False)
        if a != b:
            if a > b:
                if a - b == target:
                    return (0, 1, "-", a, b, target, False)
            elif b - a == target:
                return (0, 1, "-", b, a, target, True)
        if a * b == target:
            return (0, 1, "*", a, b, target, False)
        if a % b == 0:
            if a // b == target:
                return (0, 1, "/", a, b, target, False)
        elif b % a == 0 and b // a == target:
            return (0, 1, "/", b, a, target, True)
        return None

    def dfs(vals, key):
        # key is tuple(sorted(vals)), computed by the caller and known not
        # to be dead yet
        nonlocal visits
        visits += 1
        if visits > budget:
            raise _BudgetExhausted

        n = len(vals)
        if n == 3:
            # Children are two-value states; evaluate them inline instead
            # of recursing.
            for i in range(2):
                vi = vals[i]
                for j in range(i + 1, 3):
                    vj = vals[j]
                    w = vals[3 - i - j]

                    r = vi + vj
                    if r == target:
                        steps.append((i, j, "+", vi, vj, r, False))
                        return True
                    mv = pair_hit(w, r)
                    if mv is not None:
                        steps.append((i, j, "+", vi, vj, r, False))
                        steps.append(mv)
                        return True

                    if vi != vj:
                        if vi > vj:
                            x, y, sw = vi, vj, False
                        else:
                            x, y, sw = vj, vi, True
                        r = x - y
                        if r == target:
                            steps.append((i, j, "-", x, y, r, sw))
                            return True
                        mv = pair_hit(w, r)
                        if mv is not None:
                            steps.append((i, j, "-", x, y, r, sw))
                            steps.append(mv)
                            return True

                    r = vi * vj
                    if r == target:
                        steps.append((i, j, "*", vi, vj, r, False))
                        return True
                    mv = pair_hit(w, r)
                    if mv is not None:
                        steps.append((i, j, "*", vi, vj, r, False))
                        steps.append(mv)
                        return True

                    if vi % vj == 0:
                        x, y, r, sw = vi, vj, vi // vj, False
                    elif vj % vi == 0:
                        x, y, r, sw = vj, vi, vj // vi, True
                    else:
                        continue
                    if r == target:
                        steps.append((i, j, "/", x, y, r, sw))
                        return True
                    mv = pair_hit(w, r)
                    if mv is not None:
                        steps.append((i, j, "/", x, y, r, sw))
                        steps.append(mv)
                        return True
            dead.add(key)
            return False

        deeper = n > 2
        for i in range(n - 1):
            vi = vals[i]
            for j in range(i + 1, n):
                vj = vals[j]

                r = vi + vj
                if r == target:
                    steps.append((i, j, "+", vi, vj, r, False))
                    return True
                if deeper:
                    del vals[j]
                    del vals[i]
                    vals.append(r)
                    ckey = tuple(sorted(vals))
                    if ckey in dead:
                        hit = False
                    else:
                        steps.append((i, j, "+", vi, vj, r, False))
                        hit = dfs(vals, ckey)
                        if not hit:
                            steps.pop()
                    vals.pop()
                    vals.insert(i, vi)
                    vals.insert(j, vj)
                    if hit:
                        return True

                if vi != vj:
                    if vi > vj:
                        x, y, sw = vi, vj, False
                    else:
                        x, y, sw = vj, vi, True
                    r = x - y
                    if r == target:
                        steps.append((i, j, "-", x, y, r, sw))
                        return True
                    if deeper:
                        del vals[j]
                        del vals[i]
                        vals.append(r)
                        ckey = tuple(sorted(vals))
                        if ckey in dead:
                            hit = False
                        else:
                            steps.append((i, j, "-", x, y, r, sw))
                            hit = dfs(vals, ckey)
                            if not hit:
                                steps.pop()
                        vals.pop()
                        vals.insert(i, vi)
                        vals.insert(j, vj)
                        if hit:
                            return True

                r = vi * vj
                if r == target:
                    steps.append((i, j, "*", vi, vj, r, False))
                    return True
                if deeper:
                    del vals[j]
                    del vals[i]
                    vals.append(r)
                    ckey = tuple(sorted(vals))
                    if ckey in dead:
                        hit = False
                    else:
                        steps.append((i, j, "*", vi, vj, r, False))
                        hit = dfs(vals, ckey)
                        if not hit:
                            steps.pop()
                    vals.pop()
                    vals.insert(i, vi)
                    vals.insert(j, vj)
                    if hit:
                        return True

                if vi % vj == 0:
                    x, y, r, sw = vi, vj, vi // vj, False
                elif vj % vi == 0:
                    x, y, r, sw = vj, vi, vj // vi, True
                else:
                    continue
                if r == target:
                    steps.append((i, j, "/", x, y, r, sw))
                    return True
                if deeper:
                    del vals[j]
                    del vals[i]
                    vals.append(r)
                    ckey = tuple(sorted(vals))
                    if ckey in dead:
                        hit = False
                    else:
                        steps.append((i, j, "/", x, y, r, sw))
                        hit = dfs(vals, ckey)
                        if not hit:
                            steps.pop()
                    vals.pop()
                    vals.insert(i, vi)
                    vals.insert(j, vj)
                    if hit:
                        return True
        dead.add(key)
        return False

    start = list(values)
    if dfs(start, tuple(sorted(start))):
        return steps
    return None


def solve_dfs(puzzle: CountdownPuzzle):
    """Solve by exhaustive DFS; returns the search tree and the solution.

    The tree holds the root-to-solution path plus every sibling move at
    each path node (one level of off-path children), which is all the
    detour machinery needs; deeper wrong nodes are materialized on demand.
    Raises NoSolutionError when search exhausts the move space (or the
    node budget) without reaching the target.
    """
    target = puzzle.target
    tree = SearchTree()
    values = list(puzzle.numbers)
    if target in values:
        tree.add_node("", is_solution=True, payload=tuple(values))
        return tree, ArithExpr.leaf(values.index(target))
    try:
        steps = _find_solution(values, target, NODE_BUDGET)
    except _BudgetExhausted:
        raise NoSolutionError(
            f"search budget exhausted on {puzzle.numbers} -> {target}"
        ) from None
    if steps is None:
        raise NoSolutionError(f"{target} is unreachable from {puzzle.numbers}")

    parent = tree.add_node("", payload=tuple(values))
    exprs = [ArithExpr.leaf(m) for m in range(len(values))]
    answer = None
    for step in steps:
        next_parent = None
        for move in legal_moves(values):
            _, _, op, x, y, result, _ = move
            child = tree.add_node(
                f"{x} {op} {y} = {result}.",
                parent=parent,
                is_solution=(result == target),
                payload=tuple(_apply_move(values, move)),
            )
            if move == step:
                next_parent = child
        i, j, op, _, _, _, swapped = step
        lhs, rhs = (exprs[j], exprs[i]) if swapped else (exprs[i], exprs[j])
        combined = ArithExpr.combine(op, lhs, rhs)
        exprs = [exprs[m] for m in range(len(values)) if m != i and m != j]
        exprs.append(combined)
        values = _apply_move(values, step)
        parent = next_parent
        answer = combined
    return tree, answer


# --- traces ------------------------------------------------------------------

def _make_extend(target: int):
    """Detour extension: walk a wrong branch, then insist it is dead.

    A candidate wrong branch is accepted only when no value along it equals
    the target and the values remaining at its end cannot reach the target
    at all, so the trace's claim of a dead end is literally true.
    """

    def extend(tree, branch_id, excluded, rng):
        node = tree.nodes[branch_id]
        candidates = [c for c in node.children
                      if c not in excluded and not tree.nodes[c].is_solution]
        rng.shuffle(candidates)
        for cand in candidates:
            wrong = [cand]
            values = list(tree.nodes[cand].payload)
            cursor = cand
            while len(wrong) < MAX_DETOUR_DEPTH and len(values) >= 2:
                moves = [m for m in legal_moves(values) if m[5] != target]
                if not moves:
                    break
                move = moves[rng.randrange(len(moves))]
                _, _, op, x, y, result, _ = move
                values = _apply_move(values, move)
                cursor = tree.add_node(
                    f"{x} {op} {y} = {result}.",
                    parent=cursor,
                    payload=tuple(values),
                )
                wrong.append(cursor)
            if not reachable(values, target):
                return wrong
        return None

    return extend


def _observe(detour: Detour, wrong_nodes) -> str:
    end_values = wrong_nodes[-1].payload
    return f"{end_values[-1]} is not the correct answer."


def make_trace(puzzle: CountdownPuzzle, k: int, rng: random.Random):
    """Solve and linearize with exactly ``k`` backtracks.

    Raises GenerationError when the puzzle's tree cannot host k dead
    detours (callers resample a fresh puzzle).
    """
    tree, expr = solve_dfs(puzzle)
    path = solution_path(tree)
    plan = select_detours(tree, path, k, rng,
                          extend_fn=_make_extend(puzzle.target))
    return linearize(tree, path, plan.exact(), expr.render(puzzle.numbers),
                     _observe)


# --- answer checking ---------------------------------------------------------

_AST_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


# ASCII digits, operators, parentheses and whitespace; this also rules out
# "=", underscores in literals, and hex/octal/binary prefixes
_EXPRESSION_CHARS = re.compile(r"[0-9+\-*/()\s]+", re.ASCII)
# Most operators an answer may use: far more than a puzzle's numbers need,
# and few enough that ast.parse and the evaluator never recurse out
MAX_ANSWER_OPERATORS = 64


class _BadExpression(Exception):
    pass


def parse_answer(text: str):
    """Parse an arithmetic expression into (value, number multiset).

    Only binary + - * / over positive integer literals written with ASCII
    digits are accepted; an equals sign, names, unary operators or anything
    else fails the parse. Returns None when the text is not a valid
    expression, or uses more than MAX_ANSWER_OPERATORS operators: each
    operator is one level the parser and the evaluator may recurse.
    """
    text = text.strip()
    if (not _EXPRESSION_CHARS.fullmatch(text)
            or sum(map(text.count, "+-*/")) > MAX_ANSWER_OPERATORS):
        return None
    try:
        node = ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError):
        return None
    used: Counter = Counter()

    def walk(n) -> Fraction:
        if isinstance(n, ast.BinOp) and type(n.op) in _AST_OPS:
            a = walk(n.left)
            b = walk(n.right)
            op = _AST_OPS[type(n.op)]
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0:
                raise _BadExpression
            return a / b
        if (isinstance(n, ast.Constant) and isinstance(n.value, int)
                and not isinstance(n.value, bool)):
            used[n.value] += 1
            return Fraction(n.value)
        raise _BadExpression

    try:
        value = walk(node)
    except _BadExpression:
        return None
    return value, used


def check(instance: ProblemInstance, text: str):
    """(parseable, correct): correct when the expression evaluates to the
    target using each puzzle number at most once."""
    parsed = parse_answer(text)
    if parsed is None:
        return False, False
    value, used = parsed
    if value != int(instance.meta["target"]):
        return True, False
    available = Counter(instance.meta["numbers"])
    return True, all(available[num] >= cnt for num, cnt in used.items())


# --- instances ---------------------------------------------------------------

def format_prompt(puzzle: CountdownPuzzle) -> str:
    numbers = "[" + ", ".join(str(v) for v in puzzle.numbers) + "]"
    return PROMPT_TEMPLATE.format(numbers=numbers, target=puzzle.target)


def _instance(instance_id: int, seed: int, puzzle: CountdownPuzzle,
              ground_truth: str) -> ProblemInstance:
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.COUNTDOWN,
        prompt=format_prompt(puzzle),
        ground_truth=ground_truth,
        seed=seed,
        meta={"numbers": list(puzzle.numbers), "target": puzzle.target},
    )


def puzzle_from_instance(instance: ProblemInstance) -> CountdownPuzzle:
    return CountdownPuzzle(tuple(instance.meta["numbers"]),
                           int(instance.meta["target"]))


def build_instance(instance_id: int, seed: int) -> ProblemInstance:
    puzzle = generate(random.Random(seed))
    _, expr = solve_dfs(puzzle)
    return _instance(instance_id, seed, puzzle, expr.render(puzzle.numbers))


def build_traced(instance_id: int, seed: int, k: int):
    """Generate a puzzle whose trace carries exactly k backtracks.

    Resamples (with seeds derived from the instance seed) when a sampled
    puzzle cannot host k dead detours. Returns (instance, trace).
    """
    puzzle, trace = build_with_retries("countdown", instance_id, seed, k,
                                       generate, make_trace)
    return _instance(instance_id, seed, puzzle, trace.answer), trace
