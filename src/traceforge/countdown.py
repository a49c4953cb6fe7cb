"""Countdown arithmetic puzzles: reach a target by combining numbers with
+ - * /, each number used at most once, every intermediate value a positive
integer and every division exact.

Generation works backwards: random legal combines of a few sampled numbers
give the target, and a target among the numbers is rejected, so every
puzzle has a solution of at least one move. Solving is DFS over combine
moves with dead-state memoization, which finds the first solution in move
order; three-value states are settled by set lookup rather than searched.
The solution's moves, rendered as infix text by :func:`render_moves`, are
the answer. A solve returns the solution path alone, and a detour is the
texts of the moves it walks.
Answers are verified only by :func:`check`, through :func:`parse_answer`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .core import (
    GenerationError,
    ProblemInstance,
    Rng,
    TaskKind,
)
from .search import (
    MAX_DETOUR_DEPTH,
    SearchNode,
    build_with_retries,
    linearize,
    sample_named,
    select_detours,
    solution_path,
)

PROMPT_TEMPLATE = (
    "Using the numbers {numbers}, create an expression that equals {target}. "
    "You can only use each number once, and may combine them with +, -, * and /. "
    "Give only the expression, without an equals sign."
)


class CountdownPuzzle(NamedTuple):
    numbers: tuple
    target: int


# How many numbers a puzzle offers. With at most 6 the search needs no visit
# budget: a pair has at most 4 moves, so a solve expands the root, at most
# 60 five-value and 60 * 40 four-value states, and ends at the first
# three-value state it enters, since a four-value state enters only those
# that lookup settles. A wider range must re-check that bound.
COUNT_RANGE = (4, 6)
VALUE_RANGE = (1, 99)
TARGET_RANGE = (10, 999)
MAX_GENERATE_ATTEMPTS = 500


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
        for j in range(i + 1, n):
            yield from _pair_moves(i, j, values[i], values[j])


def _pair_moves(i, j, vi, vj):
    """The legal moves on the values vi, vj at positions i < j, in order."""
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


def render_moves(numbers, moves) -> str:
    """Infix text, with the fewest parentheses that preserve its value, of
    the expression that ``moves`` (as :func:`legal_moves` yields them)
    build from ``numbers``."""
    terms = [(str(v), 3) for v in numbers]  # (text, precedence); 3 = atom
    for i, j, op, _, _, _, swapped in moves:
        (lhs, lp), (rhs, rp) = ((terms[j], terms[i]) if swapped
                                else (terms[i], terms[j]))
        prec = 1 if op in "+-" else 2
        if lp < prec:
            lhs = f"({lhs})"
        # - and / need parentheses round an equal-precedence right operand
        if rp < prec or (rp == prec and op in "-/"):
            rhs = f"({rhs})"
        terms = [t for m, t in enumerate(terms) if m != i and m != j]
        terms.append((f"{lhs} {op} {rhs}", prec))
    return terms[-1][0]


def _apply_move(values, move):
    i, j, _, _, _, result, _ = move
    nxt = [values[m] for m in range(len(values)) if m != i and m != j]
    nxt.append(result)
    return nxt


def reachable(values, target) -> bool:
    """Exact reachability of ``target`` from a value multiset."""
    return (target in values
            or _find_solution(list(values), target) is not None)


# --- generation --------------------------------------------------------------

def _random_combine(rng: Rng, values) -> None:
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


def generate(rng: Rng) -> CountdownPuzzle:
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

# (i, j, k, m): the pairs i < j of a four-value state in move order, each
# with the positions k < m of the two values it leaves
_SPLITS_OF_FOUR = tuple(
    (i, j) + tuple(m for m in range(4) if m != i and m != j)
    for i in range(3) for j in range(i + 1, 4))


def _find_solution(values, target):
    """First solution in move order, as the list of moves taken, or None.

    Exhaustive DFS in :func:`legal_moves` order. A state of four or more
    values that fails is memoized as dead. A three-value state is settled
    by lookup instead of search: it reaches the target exactly when some
    pair's result lies in ``need`` of the third value, the target plus
    every value that one legal move with the third value takes to it.
    A four-value node recurses only into the children that lookup
    settles.
    """
    if target < 1:
        return None  # every value a move makes is a positive integer
    dead = set()
    needs = {}
    steps = []

    def need(w):
        s = needs.get(w)
        if s is None:
            # every r where r + w, |r - w|, r * w or an exact r / w or
            # w / r is the target
            s = needs[w] = {target, w + target, w * target}
            if target > w:
                s.add(target - w)
            elif w > target:
                s.add(w - target)
            if target % w == 0:
                s.add(target // w)
            if w % target == 0:
                s.add(w // target)
        return s

    def pair_hits(a, b, goals):
        # whether some legal move on {a, b} has its result in goals; no
        # goal is 0, so a - b needs no a != b test
        if a + b in goals or a * b in goals or abs(a - b) in goals:
            return True
        if a % b == 0:
            return a // b in goals
        return b % a == 0 and b // a in goals

    def dfs(vals, key):
        n = len(vals)
        if n == 3:
            for move in legal_moves(vals):
                r = move[5]
                w = vals[3 - move[0] - move[1]]
                if r in need(w):
                    steps.append(move)
                    if r != target:
                        steps.append(next(m for m in legal_moves((w, r))
                                          if m[5] == target))
                    return True
            return False

        if n == 4:
            # A child [p, q, r] is visited only when lookup settles it:
            # some pair's result lies in the third value's need set.
            for i, j, k, m in _SPLITS_OF_FOUR:
                p, q = vals[k], vals[m]
                need_p, need_q = need(p), need(q)
                pq = {p + q, p * q, abs(p - q)}
                if p % q == 0:
                    pq.add(p // q)
                elif q % p == 0:
                    pq.add(q // p)
                for move in _pair_moves(i, j, vals[i], vals[j]):
                    r = move[5]
                    if r == target:
                        steps.append(move)
                        return True
                    if (pq.isdisjoint(need(r)) and not pair_hits(p, r, need_q)
                            and not pair_hits(q, r, need_p)):
                        continue
                    # the test above is the three-value lookup's success
                    # test (no need set holds 0), so this child is solved
                    steps.append(move)
                    return dfs([p, q, r], None)
            dead.add(key)
            return False

        for move in legal_moves(vals):
            i, j, _, _, _, r, _ = move
            if r == target:
                steps.append(move)
                return True
            if n == 2:
                continue
            child = [vals[m] for m in range(n) if m != i and m != j]
            child.append(r)
            ckey = tuple(sorted(child))
            if ckey in dead:
                continue
            steps.append(move)
            if dfs(child, ckey):
                return True
            steps.pop()
        dead.add(key)
        return False

    start = list(values)
    if dfs(start, tuple(sorted(start))):
        return steps
    return None


def _move_text(move) -> str:
    _, _, op, x, y, result, _ = move
    return f"{x} {op} {y} = {result}."


def solve_dfs(puzzle: CountdownPuzzle):
    """Solve a generated puzzle; returns the solution path and the answer.

    The path is that of :func:`_find_solution`: the root, then one node
    per move, whose payload is the values it leaves and whose key is the
    move. The answer is :func:`render_moves` of the moves.
    """
    values = tuple(puzzle.numbers)
    steps = _find_solution(values, puzzle.target)
    nodes = [SearchNode("", values)]
    for step in steps:
        values = tuple(_apply_move(values, step))
        nodes.append(SearchNode(_move_text(step), values, step))
    return nodes, render_moves(puzzle.numbers, steps)


# --- traces ------------------------------------------------------------------

def _extend(target: int, values, taken, rng):
    """Walk a wrong branch from ``values``, then insist it is dead.

    The first move is one of the legal moves on ``values``, in move order,
    that neither makes the target nor is in ``taken`` (the path's step or
    an earlier detour's there), matched as the whole move tuple: with
    repeated numbers, two moves can read alike. A walk is accepted only
    when no value along it equals the target and the values remaining at
    its end cannot reach the target at all, so the trace's claim of a dead
    end is literally true. Returns (the first move, the walk's move texts,
    an observation naming the value the last move made), or None when no
    candidate's walk is dead. :func:`make_trace` binds ``target``.
    """
    candidates = [m for m in legal_moves(values)
                  if m[5] != target and m not in taken]
    rng.shuffle(candidates)
    for first in candidates:
        moves = [first]
        end = _apply_move(values, first)
        while len(moves) < MAX_DETOUR_DEPTH and len(end) >= 2:
            options = [m for m in legal_moves(end) if m[5] != target]
            if not options:
                break
            moves.append(options[rng.randrange(len(options))])
            end = _apply_move(end, moves[-1])
        if not reachable(end, target):
            return (first, [_move_text(m) for m in moves],
                    f"{end[-1]} is not the correct answer.")
    return None


def make_trace(puzzle: CountdownPuzzle, k: int, rng: Rng):
    """Solve and linearize with exactly ``k`` backtracks.

    Raises GenerationError when the puzzle's solution path cannot host k
    dead detours (callers resample a fresh puzzle).
    """
    nodes, answer = solve_dfs(puzzle)
    path = solution_path(nodes)
    extend = partial(_extend, puzzle.target)
    return linearize(nodes, path, select_detours(nodes, path, k, rng, extend),
                     answer)


# --- answer checking ---------------------------------------------------------

# Most operators an answer may use: far more than a puzzle's numbers need.
# It bounds the arithmetic one reading does, at most this many int or
# Fraction operations on literals of at most 4,300 digits.
MAX_ANSWER_OPERATORS = 64
# Most parentheses an answer may hold open at once
MAX_ANSWER_DEPTH = 200

# One token after any spaces, tabs and form feeds: a zero literal, another
# literal, or any one character, which the reader rejects unless it is an
# operator, a parenthesis, or a line break inside parentheses
_TOKEN = re.compile(r"[ \t\f]*(0+|[1-9][0-9]*|.)", re.DOTALL)
# Binding strength on the operator stack; "(" binds nothing, so no
# operator read inside a group applies what lies below it
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "(": 0}
# Closes the token list: it applies every operator still on the stack
_END = "<end>"


def parse_answer(text: str):
    """Read an arithmetic answer into (value, counts), or None.

    The grammar, over the text with surrounding whitespace stripped::

        expr    := term (("+" | "-") term)*
        term    := operand (("*" | "/") operand)*
        operand := literal | "(" expr ")"
        literal := "0"+ | [1-9] [0-9]*

    Operators are binary and group left to right. Spaces, tabs and form
    feeds may sit between tokens; line breaks (line feed or carriage
    return) only inside parentheses; no other character anywhere, so
    ``00`` is 0 but ``01``, an equals sign, names, unary signs, ``//``,
    ``**``, ``()`` and juxtaposition such as ``(1)(2)`` are rejected. An
    answer may use at most MAX_ANSWER_OPERATORS operators and hold at most
    MAX_ANSWER_DEPTH parentheses open at once; a literal other than zeros
    may have at most ``int``'s digit limit (4,300 by default). On these
    characters this is the language ``ast.parse`` accepts on CPython 3.11.

    Values stay ints until a division is inexact, and are exact Fractions
    from there on, so ``8 / 3 * 3`` is 8; a division by zero gives None.
    ``counts`` maps each literal's value to the times it is used. The text
    is read in one pass with an explicit operator stack (shunting yard)
    and no recursion, so every string gets an answer in time bounded by
    its length.
    """
    tokens = _TOKEN.findall(text.strip())
    tokens.append(_END)
    ops = []
    values = []
    counts = {}
    depth = 0
    operators = 0
    want_operand = True
    for tok in tokens:
        if want_operand:
            c = tok[0]
            if c == "0":
                v = 0
            elif "1" <= c <= "9":
                try:
                    v = int(tok)
                except ValueError:  # past the interpreter's digit limit
                    return None
            elif tok == "(":
                if depth == MAX_ANSWER_DEPTH:
                    return None
                depth += 1
                ops.append(tok)
                continue
            elif depth and tok in "\n\r":
                continue
            else:
                return None
            values.append(v)
            counts[v] = counts.get(v, 0) + 1
            want_operand = False
            continue
        # after an operand: an operator, ")", a line break or the end
        prec = _PRECEDENCE.get(tok)
        if prec:
            operators += 1
            if operators > MAX_ANSWER_OPERATORS:
                return None
            want_operand = True
        elif depth:
            if tok == ")":
                depth -= 1
                prec = 1
            elif tok in "\n\r":
                continue
            else:
                return None
        elif tok is _END:
            prec = 1
        else:
            return None
        while ops and _PRECEDENCE[ops[-1]] >= prec:
            op = ops.pop()
            b = values.pop()
            a = values[-1]
            if op == "+":
                values[-1] = a + b
            elif op == "-":
                values[-1] = a - b
            elif op == "*":
                values[-1] = a * b
            elif b == 0:
                return None
            elif type(a) is int and type(b) is int and a % b == 0:
                values[-1] = a // b
            else:
                values[-1] = Fraction(a) / b
        if want_operand:
            ops.append(tok)
        elif tok == ")":
            ops.pop()  # its "("
    return values[0], counts


def check(instance: ProblemInstance, text: str):
    """(parseable, correct): correct when the expression evaluates to the
    target using each puzzle number at most once. A ``meta["target"]``
    that is not an int, or ``meta["numbers"]`` that are not a list of
    ints, raise ValueError."""
    parsed = parse_answer(text)
    if parsed is None:
        return False, False
    target, numbers = instance.meta["target"], instance.meta["numbers"]
    if type(target) is not int:
        raise ValueError("meta 'target' must be an int")
    if not (isinstance(numbers, (list, tuple))
            and all(type(num) is int for num in numbers)):
        raise ValueError("meta 'numbers' must be a list of ints")
    value, used = parsed
    if value != target:
        return True, False
    return True, all(numbers.count(num) >= cnt for num, cnt in used.items())


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


def build_instance(instance_id: int, seed: int) -> ProblemInstance:
    puzzle = sample_named("countdown", instance_id, seed, generate, Rng(seed))
    _, answer = solve_dfs(puzzle)
    return _instance(instance_id, seed, puzzle, answer)


def build_traced(instance_id: int, seed: int, k: int):
    """Generate a puzzle whose trace carries exactly k backtracks.

    Resamples (with seeds derived from the instance seed) when a sampled
    puzzle cannot host k dead detours. Returns (instance, trace).
    """
    puzzle, trace = build_with_retries("countdown", instance_id, seed, k,
                                       generate, make_trace)
    return _instance(instance_id, seed, puzzle, trace.answer), trace
