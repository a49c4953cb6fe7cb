"""Independent reference implementations used to cross-check the package,
readers that rebuild a generated puzzle from its instance, and the one
builder of every value pinned in ``tests/golden.json``.

Everything here is deliberately written in a different style from the
code under test (set closures instead of ordered DFS, explicit set
arithmetic instead of bitmasks, truth-table bitsets instead of
per-assignment loops) so agreement between the two is meaningful.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import tempfile
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

from traceforge import arc1d, countdown, pipeline, reward, search, sudoku
from traceforge.core import Rng, TaskKind, derive_seed
from traceforge.tasks import TASKS


# --- countdown ---------------------------------------------------------------

def countdown_solvable(numbers, target) -> bool:
    """Reachability of ``target`` by unordered set closure.

    Explores multisets of values in no particular order, combining any
    two values with + - * / under the positive-integer and exact-division
    rules. Shares no move ordering or memo layout with the solver.
    """
    seen = set()

    def explore(state) -> bool:
        if state in seen:
            return False
        seen.add(state)
        if target in state:
            return True
        n = len(state)
        if n < 2:
            return False
        for i in range(n - 1):
            for j in range(i + 1, n):
                a, b = state[i], state[j]
                rest = tuple(v for k, v in enumerate(state) if k != i and k != j)
                results = {a + b, a * b}
                if a != b:
                    results.add(abs(a - b))
                big, small = max(a, b), min(a, b)
                if big % small == 0:
                    results.add(big // small)
                for r in results:
                    if explore(tuple(sorted(rest + (r,)))):
                        return True
        return False

    return explore(tuple(sorted(numbers)))


# --- sudoku ------------------------------------------------------------------

def sudoku_grid_valid(grid) -> bool:
    """A complete grid where every row, column and box is 1..9 once."""
    want = set(range(1, 10))
    for r in range(9):
        if {grid[r * 9 + c] for c in range(9)} != want:
            return False
    for c in range(9):
        if {grid[r * 9 + c] for r in range(9)} != want:
            return False
    for br in range(0, 9, 3):
        for bc in range(0, 9, 3):
            box = {grid[(br + dr) * 9 + bc + dc]
                   for dr in range(3) for dc in range(3)}
            if box != want:
                return False
    return True


def _sudoku_peers(cell) -> tuple:
    r, c = divmod(cell, 9)
    br, bc = 3 * (r // 3), 3 * (c // 3)
    same = ({r * 9 + k for k in range(9)} | {k * 9 + c for k in range(9)}
            | {(br + dr) * 9 + bc + dc for dr in range(3) for dc in range(3)})
    return tuple(same - {cell})


_SUDOKU_PEERS = tuple(_sudoku_peers(cell) for cell in range(81))
_DIGITS = frozenset(range(1, 10))


def sudoku_mask_digits(mask) -> list:
    """The digits of a candidate mask (bit ``d`` for digit ``d``), lowest
    bit first, taken off one bit at a time."""
    digits = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        digits.append(bit.bit_length() - 1)
    return digits


def sudoku_solutions(grid, limit: int = 2) -> list:
    """Completions of ``grid`` (at most ``limit``) by naive backtracking.

    Row-major cell order, candidate digits found by set difference
    against the values of the cell's row, column and box peers.
    """
    grid = list(grid)
    sols: list = []

    def rec(cell) -> None:
        if len(sols) >= limit:
            return
        while cell < 81 and grid[cell]:
            cell += 1
        if cell == 81:
            sols.append(tuple(grid))
            return
        for d in _DIGITS.difference([grid[p] for p in _SUDOKU_PEERS[cell]]):
            grid[cell] = d
            rec(cell + 1)
            grid[cell] = 0

    rec(0)
    return sols


# --- instance readers --------------------------------------------------------
#
# The package's solvers see only the puzzles its generators make; these
# rebuild such a puzzle from the instance written for it.

def countdown_puzzle(instance) -> countdown.CountdownPuzzle:
    """The puzzle with its moves: an instance does not write the moves, so
    the generator runs again on the draws ``build_instance`` uses, then on
    those of each ``build_traced`` attempt, until the numbers and target
    are the instance's."""
    seeds = [instance.seed] + [derive_seed(instance.seed, attempt)
                               for attempt in range(search.MAX_TRACE_RETRIES)]
    want = (tuple(instance.meta["numbers"]), instance.meta["target"])
    for seed in seeds:
        puzzle = countdown.generate(Rng(seed))
        if (puzzle.numbers, puzzle.target) == want:
            return puzzle
    raise AssertionError(f"no draw of seed {instance.seed:#x} gives {want}")


def sudoku_puzzle(instance) -> sudoku.SudokuPuzzle:
    givens = tuple(map(int, instance.meta["givens"]))
    solution = tuple(map(int, instance.meta["solution"]))
    return sudoku.SudokuPuzzle(givens, solution, givens.count(0))


def arc1d_task(instance) -> arc1d.Arc1dTask:
    name, params = instance.meta["rule"]
    rule = next(r for r in arc1d.RULE_POOL
                if r.name == name and list(r.params) == params)
    return arc1d.Arc1dTask(
        tuple((tuple(i), tuple(o)) for i, o in instance.meta["train_pairs"]),
        tuple(instance.meta["test_input"]),
        rule,
    )


# --- per-cell grid references ------------------------------------------------
#
# The grid operations as the package wrote them before they moved to bytes
# operations, one Python step per cell. On colors 0..9 the package must
# give exactly what these give.

def arc1d_recolor_reference(grid, src, dst):
    return tuple(dst if v == src else v for v in grid)


def arc1d_swap_colors_reference(grid, a, b):
    return tuple(b if v == a else a if v == b else v for v in grid)


def arc1d_erase_color_reference(grid, color):
    return tuple(0 if v == color else v for v in grid)


def arc1d_single_block_reference(grid):
    cells = [i for i, v in enumerate(grid) if v]
    if cells and cells[-1] - cells[0] == len(cells) - 1:
        return cells[0], cells[-1]
    return None


def arc1d_fill_gap_reference(grid):
    cells = [i for i, v in enumerate(grid) if v]
    if len(cells) < 2:
        return grid
    first, last = cells[0], cells[-1]
    return grid[:first + 1] + (grid[first],) * (last - first - 1) + grid[last:]


# the package transform each reference above stands for
ARC1D_TRANSFORM_REFERENCES = {
    arc1d._recolor: arc1d_recolor_reference,
    arc1d._swap_colors: arc1d_swap_colors_reference,
    arc1d._erase_color: arc1d_erase_color_reference,
    arc1d._fill_gap: arc1d_fill_gap_reference,
}


def arc1d_render_reference(grid) -> str:
    return " ".join(map(str, grid))


def sudoku_render_reference(grid) -> str:
    return "\n".join(
        " ".join(str(grid[r * 9 + c]) for c in range(9)) for r in range(9)
    )


# --- decimal formatting ------------------------------------------------------

def round_half_away_reference(value, places: int) -> str:
    """Half-away-from-zero rounding as the package once did it: Fractions
    by integer division, anything else through ``Decimal.quantize`` on its
    ``repr``. Values past 28 significant digits at ``places`` overflow the
    default decimal context."""
    if isinstance(value, Fraction):
        scaled = value * 10 ** places
        sign = -1 if scaled < 0 else 1
        n, d = abs(scaled.numerator), scaled.denominator
        q, r = divmod(n, d)
        if 2 * r >= d:
            q += 1
        q *= sign
        if places:
            digits = str(abs(q)).rjust(places + 1, "0")
            out = f"{digits[:-places]}.{digits[-places:]}"
        else:
            out = str(abs(q))
        return f"-{out}" if q < 0 else out
    quantum = Decimal(1).scaleb(-places)
    d = Decimal(repr(value)) if isinstance(value, float) else Decimal(value)
    d = d.quantize(quantum, rounding=ROUND_HALF_UP)
    if d.is_zero():
        d = abs(d)
    return str(d)


# --- self-referential statements ---------------------------------------------
#
# Assignments of 7 booleans are the integers 0..127; statement truth is a
# 128-bit table. An assignment is consistent when, for every statement,
# the claim bit equals the assignment bit, so the consistent set is an
# intersection of XNOR masks.

_NBITS = 1 << 7
_FULL = (1 << _NBITS) - 1
_POP = [bin(m).count("1") for m in range(_NBITS)]
_SAID = [sum(1 << m for m in range(_NBITS) if (m >> i) & 1) for i in range(7)]
_CLAIMS: dict = {}


def _claim_table(kind: str, value: int) -> int:
    key = (kind, value)
    mask = _CLAIMS.get(key)
    if mask is not None:
        return mask
    mask = 0
    for m in range(_NBITS):
        if kind == "says_true":
            ok = bool((m >> (value - 1)) & 1)
        elif kind == "says_false":
            ok = not ((m >> (value - 1)) & 1)
        elif kind == "exactly":
            ok = _POP[m] == value
        elif kind == "at_least":
            ok = _POP[m] >= value
        elif kind == "at_most":
            ok = _POP[m] <= value
        else:
            raise ValueError(f"unknown statement kind {kind}")
        if ok:
            mask |= 1 << m
    _CLAIMS[key] = mask
    return mask


def selfref_consistent_count(statements) -> int:
    """Consistent-assignment count for [(kind, value), ...] via bitsets."""
    result = _FULL
    for i, (kind, value) in enumerate(statements):
        result &= ~(_claim_table(kind, value) ^ _SAID[i]) & _FULL
    return bin(result).count("1")


# --- answer readers ----------------------------------------------------------
#
# The first forms of the reward's readers, kept as oracles for the faster
# ones: a tag scan built from counts and finds, a score assembled field by
# field, grid parsers that read token by token, and an expression walk that
# is exact in Fractions throughout.

# pieces of tags and text; joined at random they make every tag mistake
TAG_FRAGMENTS = ("<think>", "</think>", "<answer>", "</answer>", "<think",
                 "</answer", "think>", "</", "<", ">", "/", "x", " ", "\n")


def tags_reference(completion: str) -> tuple:
    """``(answer, well_formed)`` of a completion: each of the four tags
    exactly once, in think-open, think-close, answer-open, answer-close
    order; the answer is the span from the first answer open tag to the
    first close tag after it."""
    well_formed = (
        completion.count("<think>") == 1
        and completion.count("</think>") == 1
        and completion.count("<answer>") == 1
        and completion.count("</answer>") == 1
    )
    if well_formed:
        well_formed = (completion.find("<think>") < completion.find("</think>")
                       < completion.find("<answer>")
                       < completion.find("</answer>"))
    answer = None
    start = completion.find("<answer>")
    if start >= 0:
        end = completion.find("</answer>", start + len("<answer>"))
        if end >= 0:
            answer = completion[start + len("<answer>"):end]
    return answer, well_formed


def score_reference(instance, completion: str, gated: bool = True):
    """The breakdown a completion earns, built field by field: 0.1 for
    well-formed tags, 0.9 for a right answer when the tags are well formed
    or ``gated`` is off, and a category that is ``correct`` or
    ``incorrect`` only for a well-formed, parseable answer."""
    answer, well_formed = tags_reference(completion)
    format_score = 0.1 if well_formed else 0.0
    parseable = right = False
    if answer is not None:
        parseable, right = reward.check_answer(instance, answer.strip())
    answer_score = 0.9 if right and (well_formed or not gated) else 0.0
    if well_formed and parseable:
        category = "correct" if right else "incorrect"
    else:
        category = "incorrect_format"
    return reward.ScoreBreakdown(format_score, answer_score,
                                 format_score + answer_score, category)


def arc1d_parse_reference(text: str):
    """Whitespace-separated single ASCII digits as a tuple of ints, read
    token by token, else None."""
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


def sudoku_parse_reference(text: str):
    """Nine lines of nine single digits 1..9 as a tuple of 81 ints, else
    None."""
    lines = text.strip().split("\n")
    if len(lines) != 9:
        return None
    out = []
    for line in lines:
        tokens = line.split()
        if len(tokens) != 9:
            return None
        for tok in tokens:
            if len(tok) == 1 and "1" <= tok <= "9":
                out.append(int(tok))
            else:
                return None
    return tuple(out)


_EXPRESSION_CHARS = re.compile(r"[0-9+\-*/()\s]+", re.ASCII)
_FRACTION_OPS = {ast.Add: Fraction.__add__, ast.Sub: Fraction.__sub__,
                 ast.Mult: Fraction.__mul__, ast.Div: Fraction.__truediv__}


def countdown_parse_reference(text: str, max_operators: int = 64):
    """``(value, number multiset)`` of a countdown answer, every value a
    Fraction, or None: binary + - * / over ASCII integer literals, at most
    ``max_operators`` operators, no division by zero."""
    text = text.strip()
    if (not _EXPRESSION_CHARS.fullmatch(text)
            or sum(map(text.count, "+-*/")) > max_operators):
        return None
    try:
        node = ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError):
        return None
    used: Counter = Counter()

    def walk(n) -> Fraction:
        if isinstance(n, ast.BinOp) and type(n.op) in _FRACTION_OPS:
            a, b = walk(n.left), walk(n.right)
            if isinstance(n.op, ast.Div) and b == 0:
                raise ZeroDivisionError
            return _FRACTION_OPS[type(n.op)](a, b)
        if (isinstance(n, ast.Constant) and isinstance(n.value, int)
                and not isinstance(n.value, bool)):
            used[n.value] += 1
            return Fraction(n.value)
        raise ValueError("not a countdown expression")

    try:
        return walk(node), used
    except (ZeroDivisionError, ValueError):
        return None


# --- completions -------------------------------------------------------------
#
# The wrapper text is written out by hand here, not built from package
# constants, so these helpers double as format pins.

def wrap(answer: str, think: str = "working through it.") -> str:
    """A minimal well-formed completion around ``answer``."""
    return (
        "Let me solve this step by step.\n"
        f"<think>\n{think}\n</think>\n"
        "\n"
        f"<answer>{answer}</answer>"
    )


# --- golden table ------------------------------------------------------------
#
# tests/golden.json pins the bytes that its "schema_version" writes. Each
# entry is {"name", "what", "value"}: "what" says how to build the value,
# and golden_value builds it. Kinds of "what":
#   data / manifest  SHA-256 of a file, or of its manifest, that "of" writes:
#                    "instances" (emit_instances), "sft" (emit_sft at "k"),
#                    or "shuffled" (that sft file through write_shuffled
#                    with the same seed)
#   listing          SHA-256 of "<file> <sha256>\n" lines for the instance
#                    files of "instances" and the sft files of "sft", each
#                    followed by its manifest, in the order given
#   lines            SHA-256 over pipeline.build_records' lines joined by
#                    "\n", updated in "runs" (task, count, depths), seed, k
#                    order
#   instance         the instance_to_json line of one instance

GOLDEN_TABLE = Path(__file__).with_name("golden.json")


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def file_sha256s(directory) -> dict:
    """``{file name: SHA-256}`` of every file in ``directory``."""
    return {p.name: sha256_of(p) for p in Path(directory).iterdir()}


def _dataset_sha256s(of: str, task: str, count: int, seed: int,
                     k=None) -> tuple:
    """SHA-256 of the data file ``of`` writes and of its manifest."""
    kind = TaskKind(task)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{of}.jsonl")
        if of == "instances":
            pipeline.emit_instances(kind, count, seed, path)
        elif of == "sft":
            pipeline.emit_sft(kind, count, k, seed, path)
        else:
            source = os.path.join(tmp, "source.jsonl")
            pipeline.emit_sft(kind, count, k, seed, source)
            pipeline.write_shuffled(source, path, seed)
        return sha256_of(path), sha256_of(pipeline.manifest_path_for(path))


def golden_value(entry) -> str:
    """What ``entry`` of the golden table pins, built from its "what"."""
    what = dict(entry["what"])
    kind = what.pop("kind")
    if kind == "instance":
        instance = TASKS[TaskKind(what["task"])].build_instance(
            what["id"], what["seed"])
        return pipeline.instance_to_json(instance)
    digest = hashlib.sha256()
    if kind == "lines":
        for task, count, depths in what["runs"]:
            for seed in what["seeds"]:
                for k in depths:
                    lines = pipeline.build_records(TaskKind(task), count,
                                                   seed, k)
                    digest.update("\n".join(lines).encode())
        return digest.hexdigest()
    if kind == "listing":
        count, seed = what["count"], what["seed"]
        files = [(f"{task}_instances.jsonl", ("instances", task, count, seed))
                 for task in what["instances"]]
        files += [(f"{task}_k{k}.jsonl", ("sft", task, count, seed, k))
                  for task, depths in what["sft"] for k in depths]
        for name, args in files:
            data, manifest = _dataset_sha256s(*args)
            digest.update(f"{name} {data}\n{name}.manifest.json {manifest}\n"
                          .encode())
        return digest.hexdigest()
    data, manifest = _dataset_sha256s(**what)
    return {"data": data, "manifest": manifest}[kind]


def golden_pins(prefix: str) -> list:
    """The golden table's entries whose name starts with ``prefix``, in
    table order; LookupError when there are none."""
    table = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))
    pins = [e for e in table["entries"] if e["name"].startswith(prefix)]
    if not pins:
        raise LookupError(f"{GOLDEN_TABLE} has no entry named {prefix}...")
    return pins


def moved(entries) -> dict:
    """``{name: (pinned value, value now)}`` for each entry that moved."""
    changes = {}
    for entry in entries:
        now = golden_value(entry)
        if now != entry["value"]:
            changes[entry["name"]] = (entry["value"], now)
    return changes
