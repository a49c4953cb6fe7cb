"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the
code under test (set closures instead of ordered DFS, explicit set
arithmetic instead of bitmasks, truth-table bitsets instead of
per-assignment loops) so agreement between the two is meaningful.
"""

from __future__ import annotations


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
