"""9x9 Sudoku: full-grid generation, hole digging that proves solution
uniqueness, and trace construction. Only puzzles sampled here are solved,
so each one comes with its unique solution.

Cells are indexed 0..80 row-major; digits are 1..9 with 0 for blanks.
Solvers keep one 9-bit candidate mask per row, column and box. One
propagating core counts completions: it places naked and hidden singles
until none is left, and only then branches on the cell with the fewest
candidates. Hole digging proves uniqueness removal by removal: a swap of
two digits over a group of blank cells that every unit meets in both or
neither of its cells holding them is a second completion found with no
search, and the counting core runs only when no such group exists. The
trace solver fills cells in plain row-major order, where multi-candidate
cells are common and give detours room to branch; it returns the solution
path alone, and each detour is the texts of the wrong placements it walks.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .core import ProblemInstance, Rng, TaskKind, digit_string
from .search import (
    MAX_DETOUR_DEPTH,
    SearchNode,
    build_with_retries,
    linearize,
    select_detours,
    solution_path,
)

FULL = 0x3FE  # candidate bits for digits 1..9
# (row, column, box) per cell
UNITS = tuple((i // 9, i % 9, i // 27 * 3 + i % 9 // 3) for i in range(81))

PROMPT_TEMPLATE = (
    "Solve this Sudoku puzzle. Empty cells are shown as 0:\n"
    "{grid}\n"
    "Give the completed grid as nine lines of nine digits, "
    "with the digits in each line separated by single spaces."
)


class SudokuPuzzle(NamedTuple):
    givens: tuple    # 81 ints, 0 marks a blank
    solution: tuple  # 81 ints, the unique completion
    blanks: int


BLANK_RANGE = (30, 60)
FILL_RESTART_STEPS = 20_000  # backtrack cap before a fresh fill


def _prepare(grid):
    """Build row/col/box masks from a grid, or None on conflicting givens."""
    rows = [0] * 9
    cols = [0] * 9
    boxes = [0] * 9
    empties = []
    for i in range(81):
        v = grid[i]
        if v:
            bit = 1 << v
            r, c, b = UNITS[i]
            if (rows[r] | cols[c] | boxes[b]) & bit:
                return None
            rows[r] |= bit
            cols[c] |= bit
            boxes[b] |= bit
        else:
            empties.append(i)
    return rows, cols, boxes, empties


def _count(rows, cols, boxes, empties, limit) -> int:
    """Completions of the position the unit masks describe, capped at
    ``limit``.

    ``rows``, ``cols`` and ``boxes`` hold each unit's placed digits as
    bits; ``empties`` lists the blank cells. Naked singles (a cell with
    one candidate) and hidden singles (a digit with one place in a row,
    column or box) are placed until none is left; a cell with no
    candidate or a digit with no place in a unit ends the branch. Only
    then does the search branch on the cell with the fewest candidates,
    giving each digit its own copies of the masks. The masks and
    ``empties`` are consumed.
    """
    while empties:
        # naked singles, placed as they are found
        keep = []
        masks = []
        for i in empties:
            r, c, b = UNITS[i]
            m = FULL & ~(rows[r] | cols[c] | boxes[b])
            if m & (m - 1):
                keep.append(i)
                masks.append(m)
            elif m:
                rows[r] |= m
                cols[c] |= m
                boxes[b] |= m
            else:
                return 0
        if len(keep) < len(empties):
            empties = keep
            continue
        # hidden singles: nothing was placed above, so the masks are exact
        r1, c1, b1 = [0] * 9, [0] * 9, [0] * 9
        r2, c2, b2 = [0] * 9, [0] * 9, [0] * 9
        for i, m in zip(empties, masks):
            r, c, b = UNITS[i]
            r2[r] |= r1[r] & m
            r1[r] |= m
            c2[c] |= c1[c] & m
            c1[c] |= m
            b2[b] |= b1[b] & m
            b1[b] |= m
        for u in range(9):
            if ((rows[u] | r1[u]) & (cols[u] | c1[u]) & (boxes[u] | b1[u])
                    != FULL):
                return 0  # some digit has no place left in a unit
        keep = []
        for i, m in zip(empties, masks):
            r, c, b = UNITS[i]
            h = m & ~(r2[r] & c2[c] & b2[b])
            if not h:
                keep.append(i)
                continue
            if h & (h - 1) or h & (rows[r] | cols[c] | boxes[b]):
                return 0  # forced to two digits, or its digit went elsewhere
            rows[r] |= h
            cols[c] |= h
            boxes[b] |= h
        if len(keep) < len(empties):
            empties = keep
            continue
        # branch on the most constrained cell
        best = min(range(len(masks)), key=lambda k: masks[k].bit_count())
        i = empties[best]
        m = masks[best]
        rest = empties[:best] + empties[best + 1:]
        r, c, b = UNITS[i]
        total = 0
        while m:
            bit = m & -m
            m ^= bit
            rs, cs, bs = rows[:], cols[:], boxes[:]
            rs[r] |= bit
            cs[c] |= bit
            bs[b] |= bit
            total += _count(rs, cs, bs, rest[:], limit - total)
            if total >= limit:
                break
        return total
    return 1


def count_solutions(grid, limit: int = 2) -> int:
    """Number of completions of ``grid``, capped at ``limit``; conflicting
    givens count as zero."""
    prep = _prepare(grid)
    return 0 if prep is None else _count(*prep, limit)


def generate_full(rng: Rng) -> tuple:
    """A uniformly scrambled complete grid via randomized backtracking."""
    while True:
        grid = [0] * 81
        rows = [0] * 9
        cols = [0] * 9
        boxes = [0] * 9
        steps = 0

        def fill(i):
            nonlocal steps
            if i == 81:
                return True
            steps += 1
            if steps > FILL_RESTART_STEPS:
                return False
            r, c, b = UNITS[i]
            m = FULL & ~(rows[r] | cols[c] | boxes[b])
            if not m:
                return False
            bits = []
            while m:
                bit = m & -m
                m ^= bit
                bits.append(bit)
            rng.shuffle(bits)
            for bit in bits:
                rows[r] |= bit
                cols[c] |= bit
                boxes[b] |= bit
                grid[i] = bit.bit_length() - 1
                if fill(i + 1):
                    return True
                rows[r] ^= bit
                cols[c] ^= bit
                boxes[b] ^= bit
            grid[i] = 0
            return False

        if fill(0):
            return tuple(grid)


def _unit_places(solution) -> list:
    """``where[d][u]``: the cell of the complete grid ``solution`` that
    holds digit ``d`` in unit ``u``, where rows are units 0..8, columns
    9..17 and boxes 18..26."""
    where = [[0] * 27 for _ in range(10)]
    for i, (r, c, b) in enumerate(UNITS):
        at = where[solution[i]]
        at[r] = at[9 + c] = at[18 + b] = i
    return where


def _swap_group(solution, grid, cell, alt, where) -> Optional[set]:
    """The cells over which swapping ``solution[cell]`` and ``alt`` turns
    ``solution`` into a second completion of ``grid``, or None when a
    given is in the way; ``cell`` itself counts as blank.

    The group is the closure of ``cell`` among the cells whose solution
    digit is one of the two: each member brings in the cell holding the
    other digit in its row, column and box (``where`` is
    :func:`_unit_places`).
    """
    pair = solution[cell] + alt
    group = {cell}
    stack = [cell]
    while stack:
        x = stack.pop()
        r, c, b = UNITS[x]
        other = where[pair - solution[x]]
        for y in (other[r], other[9 + c], other[18 + b]):
            if y not in group:
                if grid[y]:
                    return None
                group.add(y)
                stack.append(y)
    return group


def dig_holes(solution, blanks: int, rng: Rng) -> SudokuPuzzle:
    """Remove givens from a complete grid, keeping the solution unique.

    A cell may be blanked only if no alternative digit there admits any
    completion. The row, column and box masks are kept across removals:
    blanking a cell clears its digit's bit, and the alternatives are the
    digits the masks then allow. A cell with no alternative is blanked
    without a search. Otherwise each alternative is first offered a
    certificate that needs no search: the group of cells over which the
    alternative swaps with the cell's digit (:func:`_swap_group`). Every
    unit holds each digit once, so the group meets a unit in both of its
    cells holding the two digits or in neither, and the swap gives another
    valid grid. When the whole group is blank, that grid agrees with every
    given, so it is a second completion and the removal is rejected. Only
    when no alternative has a certificate does each one go through the
    propagating counter with ``limit=1``; the cell is blanked when none
    admits a completion. Which alternative rejects a removal does not
    matter, so the certificate changes no result. A rejected removal puts
    the bit back. Once a removal is rejected it stays impossible
    (removing more givens only widens the alternative's options), so one
    pass over a shuffled cell order is exhaustive. When fewer than
    ``blanks`` cells can be removed the puzzle reports the achieved count
    in its ``blanks`` field rather than failing.
    """
    lo, hi = BLANK_RANGE
    if not lo <= blanks <= hi:
        raise ValueError(f"blank count {blanks} outside allowed range {lo}..{hi}")
    prep = _prepare(solution)
    if prep is None or prep[3]:
        raise ValueError("dig_holes needs a complete, conflict-free grid")
    rows, cols, boxes, empties = prep
    where = _unit_places(solution)
    grid = list(solution)
    order = rng.sample(range(81), 81)
    for cell in order:
        if len(empties) >= blanks:
            break
        bit = 1 << grid[cell]
        r, c, b = UNITS[cell]
        rows[r] ^= bit
        cols[c] ^= bit
        boxes[b] ^= bit
        others = FULL & ~(rows[r] | cols[c] | boxes[b] | bit)
        alts = [d for d in range(1, 10) if others >> d & 1]
        for d in alts:
            if _swap_group(solution, grid, cell, d, where) is not None:
                break
        else:
            for d in alts:
                alt = 1 << d
                rs, cs, bs = rows[:], cols[:], boxes[:]
                rs[r] |= alt
                cs[c] |= alt
                bs[b] |= alt
                if _count(rs, cs, bs, empties[:], 1):
                    break
            else:
                grid[cell] = 0
                empties.append(cell)
                continue
        rows[r] |= bit
        cols[c] |= bit
        boxes[b] |= bit
    return SudokuPuzzle(tuple(grid), tuple(solution), len(empties))


def generate(rng: Rng) -> SudokuPuzzle:
    full = generate_full(rng)
    blanks = rng.randint(*BLANK_RANGE)
    return dig_holes(full, blanks, rng)


# --- solving -----------------------------------------------------------------

def _place_text(grid, cell) -> str:
    r, c, _ = UNITS[cell]
    return f"place {grid[cell]} at row {r + 1}, column {c + 1}."


def solve_dfs(puzzle: SudokuPuzzle):
    """The solution path of a puzzle's unique solution, and the solution.

    The path is the line of a plain backtracking solver that fills the
    empty cells in row-major order and tries candidate digits ascending:
    the root, then one node per empty cell, placing the solution's digit.
    Each node's payload is the grid after it, and its key is the digit it
    placed. Because the solution is unique, any other candidate is a dead
    branch, which :func:`_extend` walks when a detour takes it.
    :func:`dig_holes` proves that uniqueness for every generated puzzle.
    """
    grid = list(puzzle.givens)
    nodes = [SearchNode("", puzzle.givens)]
    for cell in range(81):
        if not puzzle.givens[cell]:
            grid[cell] = puzzle.solution[cell]
            nodes.append(SearchNode(_place_text(grid, cell), tuple(grid),
                                    grid[cell]))
    return nodes, puzzle.solution


# --- traces ------------------------------------------------------------------

def _extend(grid, taken, rng):
    """Place a wrong digit in ``grid``, walk on in the solver's cell
    order, and say why the branch is dead.

    The solver fills the grid's first empty cell next; the wrong digit is
    drawn from that cell's candidates, ascending, that are not in
    ``taken`` (the path's digit and earlier detours' digits there). The
    unit masks of the grid with the wrong digit placed, with the walk's
    placements added in cell order, follow the whole walk. Every branch
    off the solution path is dead by uniqueness, so unlike countdown no
    reachability check is needed. The walk stops early when the next cell
    has no digit left. Returns (the wrong digit, the walk's placement
    texts, an observation), or None when no wrong digit is left. The
    observation names the first remaining empty cell with no candidate,
    else the wrong placement, which the unique solution rules out.
    """
    first = grid.index(0)
    row, col, b = UNITS[first]
    box = b // 3 * 27 + b % 3 * 3  # the box's top left cell
    used = {*grid[row * 9:row * 9 + 9], *grid[col::9], *grid[box:box + 3],
            *grid[box + 9:box + 12], *grid[box + 18:box + 21]}
    digits = [d for d in range(1, 10) if d not in used and d not in taken]
    if not digits:
        return None
    grid = list(grid)
    digit = grid[first] = digits[rng.randrange(len(digits))]
    rows, cols, boxes, empties = _prepare(grid)
    wrong = [_place_text(grid, first)]
    for cell in empties[:MAX_DETOUR_DEPTH - 1]:
        r, c, b = UNITS[cell]
        mask = FULL & ~(rows[r] | cols[c] | boxes[b])
        if not mask:
            break
        bits = []
        while mask:
            bit = mask & -mask
            mask ^= bit
            bits.append(bit)
        bit = bits[rng.randrange(len(bits))]
        grid[cell] = bit.bit_length() - 1
        wrong.append(_place_text(grid, cell))
        rows[r] |= bit
        cols[c] |= bit
        boxes[b] |= bit
    for cell in empties[len(wrong) - 1:]:
        r, c, b = UNITS[cell]
        if not FULL & ~(rows[r] | cols[c] | boxes[b]):
            return digit, wrong, (f"There is no digit that can go in row "
                                  f"{r + 1}, column {c + 1}.")
    return digit, wrong, (f"The digit {digit} cannot go in row {row + 1}, "
                          f"column {col + 1}.")


def make_trace(puzzle: SudokuPuzzle, k: int, rng: Rng):
    """Linearize the solve into a trace with exactly ``k`` backtracks.

    Detours can only branch where the chosen cell had several candidates;
    heavily constrained puzzles may not host ``k`` of them, in which case
    this raises GenerationError and callers resample.
    """
    nodes, solution = solve_dfs(puzzle)
    path = solution_path(nodes)
    return linearize(nodes, path, select_detours(nodes, path, k, rng, _extend),
                     render_grid(solution))


# --- answer checking ---------------------------------------------------------

def render_grid(grid) -> str:
    """Nine lines of nine space-separated digits (0 allowed for blanks);
    a cell outside 0..9 raises ValueError."""
    digits = digit_string(grid)
    return "\n".join(" ".join(digits[i:i + 9]) for i in range(0, 81, 9))


# a grid's 81 digits, row by row; a range of code points, so only ASCII
_GRID_DIGITS = re.compile(r"[1-9]{81}")


def _grid_digits(text: str) -> Optional[str]:
    """The 81 digits of a strict grid answer as one string, or None: nine
    lines of nine whitespace-separated single digits 1..9. 81 tokens that
    join to 81 digits are 81 single digits."""
    lines = text.strip().split("\n")
    if len(lines) != 9:
        return None
    tokens = []
    for line in lines:
        row = line.split()
        if len(row) != 9:
            return None
        tokens += row
    digits = "".join(tokens)
    return digits if _GRID_DIGITS.fullmatch(digits) else None


def check(instance: ProblemInstance, text: str):
    """(parseable, correct): correct when the grid is the unique solution.
    A ``meta["solution"]`` that is not 81 digits 1..9 raises ValueError."""
    digits = _grid_digits(text)
    if digits is None:
        return False, False
    solution = instance.meta["solution"]
    if not (isinstance(solution, str) and _GRID_DIGITS.fullmatch(solution)):
        raise ValueError("meta 'solution' must be 81 digits 1-9")
    return True, digits == solution


# --- instances ---------------------------------------------------------------

def format_prompt(puzzle: SudokuPuzzle) -> str:
    return PROMPT_TEMPLATE.format(grid=render_grid(puzzle.givens))


def _instance(instance_id: int, seed: int, puzzle: SudokuPuzzle) -> ProblemInstance:
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.SUDOKU,
        prompt=format_prompt(puzzle),
        ground_truth=render_grid(puzzle.solution),
        seed=seed,
        meta={
            "givens": digit_string(puzzle.givens),
            "solution": digit_string(puzzle.solution),
            "blanks": puzzle.blanks,
        },
    )


def build_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = Rng(seed)
    return _instance(instance_id, seed, generate(rng))


def build_traced(instance_id: int, seed: int, k: int):
    """A puzzle whose trace carries exactly k backtracks: (instance, trace)."""
    puzzle, trace = build_with_retries("sudoku", instance_id, seed, k,
                                       generate, make_trace)
    return _instance(instance_id, seed, puzzle), trace
