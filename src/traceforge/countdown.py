"""Countdown arithmetic puzzles: reach a target by combining numbers with
+ - * /, each number used at most once, every intermediate value a positive
integer and every division exact.

Generation works backwards: random legal combines of a few sampled numbers
give the target, and a target among the numbers is rejected, so every
puzzle has a solution of at least one move. The puzzle keeps the
combination it drew as its moves, and a solve reads its path from them
with no search. The moves, rendered as infix text by :func:`render_moves`,
are the answer, and a detour is the texts of the moves it walks. Search
serves only :func:`reachable`, which proves each detour's end dead by a
plain DFS over combine moves; the states it is asked about hold at most
three values.
Answers are verified only by :func:`check`, through :func:`parse_answer`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
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
    # the drawn combination, as legal_moves tuples on the successive
    # states; only the last move makes the target
    moves: tuple


# How many numbers a puzzle offers. A detour leaves the path after at least
# one move and walks up to MAX_DETOUR_DEPTH moves, so with at most 6 numbers
# the state whose reachability it checks holds at most three values, which
# an unmemoized DFS settles in at most 60 moves. A wider range, or a shallower
# detour, leaves more values and makes that search grow fast; a test pins
# the three-value bound.
COUNT_RANGE = (4, 6)
VALUE_RANGE = (1, 99)
TARGET_RANGE = (10, 999)
MAX_GENERATE_ATTEMPTS = 500


# --- moves -------------------------------------------------------------------
#
# A move combines the values at positions i < j into one result. Orientation
# for - and / is forced by positivity and exact division, so each (pair, op)
# yields at most one move. Move order, which the generator's draws, the
# detour candidates and the reachability search follow: pairs
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
    return [*values[:i], *values[i + 1:j], *values[j + 1:], result]


def reachable(values, target) -> bool:
    """Exact reachability of ``target`` from a value multiset."""
    return target in values or _find_solution(list(values), target)


# --- generation --------------------------------------------------------------

def _random_combine(rng: Rng, state, slots):
    """A random legal move on two random values of the combination.

    ``slots`` holds the positions in ``state`` of the values the
    combination has left. Returns the move as :func:`legal_moves` yields
    it on ``state``, and updates ``slots`` to the positions those values
    and the move's result take in the state :func:`_apply_move` leaves.
    """
    a, b = rng.sample(range(len(slots)), 2)
    i, j = sorted((slots[a], slots[b]))
    # the draw below indexes the pair's moves in move order, so that order
    # fixes which puzzle a seed gives
    options = list(_pair_moves(i, j, state[i], state[j]))
    move = options[rng.randrange(len(options))]
    for pos in sorted((a, b), reverse=True):
        slots.pop(pos)
    slots[:] = [p - (p > i) - (p > j) for p in slots]
    slots.append(len(state) - 2)
    return move


def generate(rng: Rng) -> CountdownPuzzle:
    """Sample a puzzle whose target a combination of its numbers reaches,
    with that combination as its moves.

    A combination takes at least two moves. Its target is the last move's
    result, and the moves are cut after the first one that makes it.
    Targets that already appear among the puzzle numbers are rejected so no
    puzzle is solvable with zero moves.
    """
    lo_t, hi_t = TARGET_RANGE
    for _ in range(MAX_GENERATE_ATTEMPTS):
        n = rng.randint(*COUNT_RANGE)
        numbers = tuple(rng.randint(*VALUE_RANGE) for _ in range(n))
        ops = rng.randint(2, n - 1)
        slots = rng.sample(range(n), ops + 1)
        state = list(numbers)
        moves = []
        for _ in range(ops):
            moves.append(_random_combine(rng, state, slots))
            state = _apply_move(state, moves[-1])
        value = moves[-1][5]
        if not (lo_t <= value <= hi_t):
            continue
        if value in numbers:
            continue
        cut = next(m for m, move in enumerate(moves) if move[5] == value)
        return CountdownPuzzle(numbers, value, tuple(moves[:cut + 1]))
    raise GenerationError("could not sample a countdown puzzle within budget")


# --- solving -----------------------------------------------------------------

def _find_solution(values, target) -> bool:
    """Whether some sequence of moves on ``values`` makes ``target``.

    Plain DFS in :func:`legal_moves` order, with no memo: traces ask it
    about states of at most three values (see COUNT_RANGE), which it
    settles in at most 60 moves.
    """
    for move in legal_moves(values):
        if move[5] == target or (
                len(values) > 2
                and _find_solution(_apply_move(values, move), target)):
            return True
    return False


def _move_text(move) -> str:
    _, _, op, x, y, result, _ = move
    return f"{x} {op} {y} = {result}."


def solve_dfs(puzzle: CountdownPuzzle):
    """The solution path of a generated puzzle and its answer, read from
    the moves it was drawn with; nothing is searched.

    The path is the root, then one node per move, whose payload is the
    values it leaves and whose key is those values sorted. The answer is
    :func:`render_moves` of the moves.
    """
    values = tuple(puzzle.numbers)
    nodes = [SearchNode("", values)]
    for move in puzzle.moves:
        values = tuple(_apply_move(values, move))
        nodes.append(SearchNode(_move_text(move), values,
                                tuple(sorted(values))))
    return nodes, render_moves(puzzle.numbers, puzzle.moves)


# --- traces ------------------------------------------------------------------

@lru_cache(maxsize=64)
def _branches(values: tuple, target: int) -> tuple:
    """The branches from ``values``: for each multiset that a legal move
    can leave without making the target, (that multiset sorted, the first
    such move in move order, the values it leaves as :func:`_apply_move`
    orders them). A trace asks for the same branch point once per detour
    it hosts there, so the answer is cached."""
    branches = {}
    for move in legal_moves(values):
        if move[5] != target:
            end = tuple(_apply_move(values, move))
            key = tuple(sorted(end))
            if key not in branches:
                branches[key] = (key, move, end)
    return tuple(branches.values())


def _extend(target: int, values, taken, rng):
    """Walk a wrong branch from ``values``, then insist it is dead.

    A move is known by the sorted values it leaves, so moves that leave
    the same multiset (with repeated numbers, two moves can read alike)
    are one branch, taken by its first move in move order. The first move
    is drawn from the :func:`_branches` whose multiset is not in ``taken``
    (the path's step or an earlier detour's there). A walk is accepted
    only when no value along it equals the target and the values remaining
    at its end cannot reach the target at all, so the trace's claim of a
    dead end is literally true. Returns (the multiset the first move
    leaves, the walk's move texts, an observation naming the value the
    last move made), or None when no candidate's walk is dead.
    :func:`make_trace` binds ``target``.
    """
    candidates = [b for b in _branches(tuple(values), target)
                  if b[0] not in taken]
    rng.shuffle(candidates)
    for key, first, end in candidates:
        moves = [first]
        while len(moves) < MAX_DETOUR_DEPTH and len(end) >= 2:
            options = [m for m in legal_moves(end) if m[5] != target]
            if not options:
                break
            moves.append(options[rng.randrange(len(options))])
            end = _apply_move(end, moves[-1])
        if not reachable(end, target):
            return (key, [_move_text(m) for m in moves],
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
    return _instance(instance_id, seed, puzzle,
                     render_moves(puzzle.numbers, puzzle.moves))


def build_traced(instance_id: int, seed: int, k: int):
    """Generate a puzzle whose trace carries exactly k backtracks.

    Resamples (with seeds derived from the instance seed) when a sampled
    puzzle cannot host k dead detours. Returns (instance, trace).
    """
    puzzle, trace = build_with_retries("countdown", instance_id, seed, k,
                                       generate, make_trace)
    return _instance(instance_id, seed, puzzle, trace.answer), trace
