import hashlib
import random
import re

import pytest
from helpers import sudoku_grid_valid, sudoku_parse_reference, sudoku_puzzle, \
    sudoku_render_reference, sudoku_solutions
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforge import pipeline
from traceforge import sudoku as sd
from traceforge.core import (
    MARKER_PHRASE,
    Rng,
    TaskKind,
    derive_seed,
    extract_tags,
    render_completion,
)
from traceforge.search import solution_path, strip_detours


def sample_puzzles(n, master=808):
    for i in range(n):
        yield sd.generate(Rng(derive_seed(master, i)))


def no_solution_grid():
    # row 0 needs a 9 in its last cell, but column 8 already has one
    grid = [0] * 81
    for c in range(8):
        grid[c] = c + 1
    grid[9 + 8] = 9
    return grid


# --- generation --------------------------------------------------------------


def test_generate_full_is_valid_grid():
    for i in range(5):
        grid = sd.generate_full(random.Random(i))
        assert sudoku_grid_valid(grid)


def test_generate_full_varies_with_seed():
    assert sd.generate_full(random.Random(1)) != sd.generate_full(random.Random(2))


def test_dig_holes_keeps_unique_solution():
    for puzzle in sample_puzzles(8):
        sols = sudoku_solutions(puzzle.givens, limit=2)
        assert len(sols) == 1
        assert sols[0] == puzzle.solution
        assert sudoku_grid_valid(puzzle.solution)


def test_dig_holes_givens_agree_with_solution():
    for puzzle in sample_puzzles(5):
        blanks = 0
        for given, solved in zip(puzzle.givens, puzzle.solution):
            if given == 0:
                blanks += 1
            else:
                assert given == solved
        assert blanks == puzzle.blanks
        lo, hi = sd.BLANK_RANGE
        assert lo <= puzzle.blanks <= hi


def test_dig_holes_rejects_out_of_range_request():
    grid = sd.generate_full(random.Random(3))
    with pytest.raises(ValueError):
        sd.dig_holes(grid, 99, random.Random(0))


@pytest.mark.parametrize("cell, digit", [(40, 0), (1, None)],
                         ids=["blank", "conflict"])
def test_dig_holes_rejects_incomplete_or_conflicting_grid(cell, digit):
    grid = list(sd.generate_full(random.Random(3)))
    grid[cell] = grid[0] if digit is None else digit
    with pytest.raises(ValueError, match="complete, conflict-free grid"):
        sd.dig_holes(grid, 40, random.Random(0))


def test_golden_instance_frozen():
    inst = sd.build_instance(0, 777)
    assert inst.meta["givens"] == (
        "710065900250009000090108072020000600806002040900300800"
        "580023010167080050300650090"
    )
    assert inst.meta["solution"] == (
        "713265984258479361694138572425817639836592147971346825"
        "589723416167984253342651798"
    )
    assert inst.meta["blanks"] == 45


# --- solving and counting ----------------------------------------------------


def test_count_solutions_on_generated_puzzles():
    for puzzle in sample_puzzles(6):
        assert sd.count_solutions(puzzle.givens, limit=2) == 1


def test_count_solutions_empty_grid_hits_limit():
    assert sd.count_solutions([0] * 81, limit=2) == 2
    assert sd.count_solutions([0] * 81, limit=5) == 5


def test_count_solutions_conflicting_givens():
    grid = [0] * 81
    grid[0] = grid[1] = 7  # same row
    assert sd.count_solutions(grid) == 0


def test_count_solutions_unsatisfiable_cell():
    assert sd.count_solutions(no_solution_grid()) == 0


def test_count_solutions_matches_oracle_with_extra_blanks():
    counts = set()
    for i in range(12):
        rng = random.Random(derive_seed(71, i))
        grid = list(sd.generate(rng).givens)
        filled = [cell for cell in range(81) if grid[cell]]
        for cell in rng.sample(filled, rng.randint(1, 3)):
            grid[cell] = 0
        found = sudoku_solutions(grid, limit=5)
        for limit in (1, 2, 5):
            assert sd.count_solutions(grid, limit) == min(len(found), limit)
        counts.add(min(len(found), 2))
    assert counts == {1, 2}


def no_place_grid():
    # row 0 lacks 1, 8 and 9; the 1 in box 2 leaves cells 6..8 the
    # candidates {8, 9} each, so the row has no place for a 1
    grid = [0] * 81
    grid[:6] = [2, 3, 4, 5, 6, 7]
    grid[9 + 6] = 1
    return grid


def transpose(grid):
    return [grid[(i % 9) * 9 + i // 9] for i in range(81)]


@pytest.mark.parametrize("unit", ["row", "column", "box"])
@pytest.mark.parametrize("limit", [1, 2, 5])
def test_count_solutions_digit_without_place_in_unit(unit, limit):
    if unit == "box":
        # box 0's empty top row can take only 8 and 9, as row 0 has its 1
        # outside the box, so the box has no place for a 1
        grid = [0] * 81
        grid[5] = 1
        grid[9:12] = [2, 3, 4]
        grid[18:21] = [5, 6, 7]
    else:
        grid = no_place_grid()
    # the oracle fills cells row-major, so it meets the column version's
    # dead end quickly only in its transpose, which has as many completions
    assert sudoku_solutions(grid, limit) == []
    if unit == "column":
        grid = transpose(grid)
    assert sd.count_solutions(grid, limit) == 0


@pytest.mark.parametrize("limit", [1, 2, 5])
def test_count_solutions_pinned_multi_solution_grid(limit):
    # a core that keeps a cell it placed as a hidden single in its empty
    # list finds that cell without candidates and counts this grid as 0
    grid = [int(ch) for ch in
            "300800201000201900000000000690000004400008020000009600"
            "007000000001000468006005000"]
    assert sd.count_solutions(grid, limit) == len(sudoku_solutions(grid, limit))
    assert sd.count_solutions(grid, limit) == limit


def test_dig_holes_unique_and_kept_givens_stay_needed():
    for i in range(20):
        rng = random.Random(derive_seed(61, i))
        full = sd.generate_full(rng)
        blanks = rng.randint(*sd.BLANK_RANGE)
        replay = random.Random()
        replay.setstate(rng.getstate())
        order = replay.sample(range(81), 81)
        puzzle = sd.dig_holes(full, blanks, rng)
        assert sudoku_solutions(puzzle.givens, limit=2) == [full]
        if puzzle.blanks == blanks:  # the walk stopped after its last removal
            order = order[:max(order.index(cell) for cell in range(81)
                               if not puzzle.givens[cell]) + 1]
        for cell in order:
            if puzzle.givens[cell]:
                grid = list(puzzle.givens)
                grid[cell] = 0
                assert len(sudoku_solutions(grid, limit=2)) == 2


def test_dig_holes_decides_each_cell_on_the_grid_as_it_stood():
    # replay the walk: a visited cell is blanked exactly when the grid of
    # that moment, with the cell blanked too, still has one completion
    for i in range(12):
        rng = random.Random(derive_seed(67, i))
        full = sd.generate_full(rng)
        blanks = rng.randint(*sd.BLANK_RANGE)
        replay = random.Random()
        replay.setstate(rng.getstate())
        puzzle = sd.dig_holes(full, blanks, rng)
        grid = list(full)
        removed = 0
        for cell in replay.sample(range(81), 81):
            if removed >= blanks:
                break
            grid[cell] = 0
            if len(sudoku_solutions(grid, limit=2)) == 1:
                removed += 1
            else:
                grid[cell] = full[cell]
        assert tuple(grid) == puzzle.givens
        assert removed == puzzle.blanks


# rows 7 and 8 hold 5 and 1 in columns 1 and 8, crosswise: a rectangle
# across boxes 6 and 8 (cells 54, 61, 63 and 70)
RECTANGLE_SOLUTION = tuple(int(ch) for ch in (
    "713265984258479361694138572425817639836592147971346825"
    "589723416167984253342651798"))
RECTANGLE = {54, 61, 63, 70}


def test_swap_group_of_a_blank_rectangle_is_a_certificate():
    assert [RECTANGLE_SOLUTION[i] for i in sorted(RECTANGLE)] == [5, 1, 1, 5]
    grid = list(RECTANGLE_SOLUTION)
    for cell in RECTANGLE:
        grid[cell] = 0
    where = sd._unit_places(RECTANGLE_SOLUTION)
    assert sd._swap_group(RECTANGLE_SOLUTION, grid, 54, 1, where) == RECTANGLE
    assert sd._swap_group(RECTANGLE_SOLUTION, grid, 61, 5, where) == RECTANGLE


@pytest.mark.parametrize("given", [61, 63, 70])
def test_swap_group_with_a_given_is_no_certificate(given):
    grid = list(RECTANGLE_SOLUTION)
    for cell in RECTANGLE - {given}:
        grid[cell] = 0
    where = sd._unit_places(RECTANGLE_SOLUTION)
    assert sd._swap_group(RECTANGLE_SOLUTION, grid, 54, 1, where) is None


def test_swap_group_certificate_is_a_second_completion():
    # whenever the certificate fires, the swapped grid is valid, keeps
    # every given but the cell's own and holds the alternative digit there
    fired = 0
    for i in range(30):
        rng = random.Random(derive_seed(73, i))
        solution = sd.generate_full(rng)
        where = sd._unit_places(solution)
        share = rng.uniform(0.3, 0.9)
        grid = [0 if rng.random() < share else v for v in solution]
        for cell in range(81):
            for alt in set(range(1, 10)) - {solution[cell]}:
                group = sd._swap_group(solution, grid, cell, alt, where)
                if group is None:
                    continue
                fired += 1
                pair = {solution[cell], alt}
                swapped = [(pair - {v}).pop() if j in group else v
                           for j, v in enumerate(solution)]
                assert sudoku_grid_valid(swapped)
                assert all(grid[j] in (0, swapped[j])
                           for j in range(81) if j != cell)
                assert swapped[cell] == alt
    assert fired > 100


def test_solve_dfs_path_is_row_major():
    puzzle = next(iter(sample_puzzles(1)))
    nodes, solution = sd.solve_dfs(puzzle)
    assert solution == puzzle.solution
    path = solution_path(nodes)
    empties = [i for i in range(81) if puzzle.givens[i] == 0]
    assert len(path) == len(empties) + 1
    grid = list(puzzle.givens)
    assert nodes[0].payload == tuple(grid)
    for cell, nid in zip(empties, path[1:]):
        node = nodes[nid]
        grid[cell] = puzzle.solution[cell]
        assert node.payload == tuple(grid)
        assert node.key == puzzle.solution[cell]
        r, c = divmod(cell, 9)
        assert node.state_text == (
            f"place {puzzle.solution[cell]} at row {r + 1}, column {c + 1}."
        )


def test_detours_at_a_branch_point_take_distinct_candidates():
    # extend until a branch point has no wrong digit left, taking each
    # first digit it returns: those are every candidate of its cell but
    # the solution's
    puzzle = next(iter(sample_puzzles(1)))
    nodes, _ = sd.solve_dfs(puzzle)
    rng = random.Random(5)
    branched = 0
    for node, after in zip(nodes, nodes[1:]):
        grid = node.payload
        cell = grid.index(0)
        r, c = divmod(cell, 9)
        peers = {grid[p] for p in range(81)
                 if p // 9 == r or p % 9 == c
                 or (p // 27, p % 9 // 3) == (r // 3, c // 3)}
        candidates = set(range(1, 10)) - peers
        taken = {after.key}
        firsts = []
        while (found := sd._extend(grid, taken, rng)) is not None:
            digit, texts, _ = found
            assert texts[0] == (f"place {digit} at row {r + 1}, "
                                f"column {c + 1}.")
            firsts.append(digit)
            taken.add(digit)
        assert len(firsts) == len(set(firsts))
        assert set(firsts) == candidates - {puzzle.solution[cell]}
        branched += len(firsts) > 1
    assert branched


# --- traces ------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 5, 10])
def test_trace_marker_count_is_exact(k):
    inst, trace = sd.build_traced(2, derive_seed(17, 2), k)
    assert render_completion(trace).count(MARKER_PHRASE) == k
    assert trace.backtracks == k


def test_trace_answer_is_solution_grid():
    inst, trace = sd.build_traced(0, derive_seed(19, 0), 5)
    puzzle = sudoku_puzzle(inst)
    assert sd.check(inst, trace.answer) == (True, True)
    assert trace.answer == sd.render_grid(puzzle.solution)


def test_trace_observation_names_a_cell():
    _, trace = sd.build_traced(1, derive_seed(23, 1), 5)
    for det in trace.detours:
        assert ("cannot go in row" in det.observation
                or "no digit that can go in row" in det.observation)


PLACE = re.compile(r"place (\d) at row (\d), column (\d)\.")
PEERS = [{j for j in range(81) if j != i and (
    j // 9 == i // 9 or j % 9 == i % 9
    or (j // 27, j % 9 // 3) == (i // 27, i % 9 // 3))} for i in range(81)]


def expected_observation(givens, placements, first_wrong):
    """Why a detour is dead, worked out from the grid its steps leave: the
    first empty cell in row-major order with no digit left, else the
    detour's first placement (``placements[first_wrong]``), which
    uniqueness rules out."""
    grid = list(givens)
    for cell, digit in placements:
        grid[cell] = digit
    for i in range(81):
        if not grid[i] and not set(range(1, 10)) - {grid[j] for j in PEERS[i]}:
            return (f"There is no digit that can go in row {i // 9 + 1}, "
                    f"column {i % 9 + 1}.")
    cell, digit = placements[first_wrong]
    return (f"The digit {digit} cannot go in row {cell // 9 + 1}, "
            f"column {cell % 9 + 1}.")


def place(text):
    """(cell, digit) of a ``place d at row r, column c.`` step."""
    d, r, c = map(int, PLACE.fullmatch(text).groups())
    return (r - 1) * 9 + c - 1, d


def test_trace_observation_matches_replayed_grid_oracle():
    # replay each detour's steps onto the givens after the path steps up
    # to its resume step; its observation must match what that grid shows
    stuck = wrong_digit = 0
    for i in range(40):
        inst, trace = sd.build_traced(i, derive_seed(606, i), 10)
        givens = sudoku_puzzle(inst).givens
        path = [place(text) for text in trace.steps]
        for det in trace.detours:
            pos = det.resume_step
            steps = path[:pos] + [place(text) for text in det.steps]
            want = expected_observation(givens, steps, pos)
            assert det.observation == want
            if want.startswith("There is no digit"):
                stuck += 1
            else:
                wrong_digit += 1
    assert (stuck, wrong_digit) == (290, 110)


def test_trace_wrong_steps_use_solver_vocabulary():
    _, trace = sd.build_traced(3, derive_seed(29, 3), 5)
    for text in trace.steps + tuple(t for d in trace.detours for t in d.steps):
        assert text.startswith("place ")


def test_strip_detours_matches_plain_build():
    for k in (1, 5, 10):
        inst, trace = sd.build_traced(0, derive_seed(31, 0), k)
        puzzle = sudoku_puzzle(inst)
        plain = sd.make_trace(puzzle, 0, random.Random(0))
        assert render_completion(strip_detours(trace)) == render_completion(plain)


def test_trace_completion_is_well_formed():
    _, trace = sd.build_traced(5, derive_seed(37, 5), 1)
    tags = extract_tags(render_completion(trace))
    assert tags.well_formed


def test_build_traced_deterministic():
    a = sd.build_traced(4, derive_seed(41, 4), 5)
    b = sd.build_traced(4, derive_seed(41, 4), 5)
    assert a[0] == b[0]
    assert render_completion(a[1]) == render_completion(b[1])


# SHA-256 of emit_sft(SUDOKU, 60, 10, master_seed=0) and its manifest:
# every record walks ten detours and states why each is dead
SUDOKU_60_K10_GOLDEN = {
    "sudoku_k10.jsonl": "a6c39c40e1d56c38dc30da238d084169d2253595ecf1d466b2564c837fed072a",
    "sudoku_k10.jsonl.manifest.json": "a8d4b7e962b337844f5a05d8ca1c39233144b0e05b0e1f71aeaff53af991a6fa",
}


def test_sft_bytes_at_60_ids_and_ten_detours(tmp_path):
    path = tmp_path / "sudoku_k10.jsonl"
    pipeline.emit_sft(TaskKind.SUDOKU, 60, 10, 0, path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in (path.name, path.name + ".manifest.json")}
    assert got == SUDOKU_60_K10_GOLDEN


# --- answers -----------------------------------------------------------------


CHECKED = sd.build_instance(0, derive_seed(808, 0))
CHECKED_SOLUTION = tuple(int(ch) for ch in CHECKED.meta["solution"])


def test_render_parse_roundtrip():
    text = sd.render_grid(CHECKED_SOLUTION)
    assert sd.check(CHECKED, text) == (True, True)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace(" ", ", "),          # commas between digits
        lambda t: t.replace("\n", " ", 1),        # eight lines
        lambda t: t[:-1] + "0",                   # zero digit
        lambda t: t + "\n1 2 3 4 5 6 7 8 9",      # ten lines
        lambda t: t.replace(" ", "", 4),          # fused digits
        lambda t: "",
    ],
)
def test_parse_answer_rejects(mutate):
    text = mutate(sd.render_grid(CHECKED_SOLUTION))
    assert sd.check(CHECKED, text) == (False, False)


def test_parse_answer_tolerates_surrounding_whitespace():
    text = "\n " + sd.render_grid(CHECKED_SOLUTION) + " \n"
    assert sd.check(CHECKED, text) == (True, True)


CELL_NOISE = ("0", "٣", "１", "12", "", "x")
SEPARATOR_NOISE = (" ", "  ", "\t", "\n", "\r\n", " \n", "\u3000", ",", "")


@st.composite
def perturbed_grids(draw):
    """A rendered grid of digits 1..9 (often the solution of ``CHECKED``)
    with a few cells replaced by digits out of range, non-ASCII digits or
    other tokens, and a few separators by other whitespace or none."""
    digits = draw(st.one_of(
        st.just(CHECKED_SOLUTION),
        st.lists(st.integers(1, 9), min_size=81, max_size=81)))
    cells = [str(d) for d in digits]
    seps = [" " if i % 9 else "\n" for i in range(1, 81)] + [""]
    for _ in range(draw(st.integers(0, 2))):
        cells[draw(st.integers(0, 80))] = draw(st.sampled_from(CELL_NOISE))
    for _ in range(draw(st.integers(0, 2))):
        seps[draw(st.integers(0, 80))] = draw(st.sampled_from(SEPARATOR_NOISE))
    return "".join(c + sep for c, sep in zip(cells, seps))


@settings(max_examples=300)
@given(perturbed_grids())
@example(sudoku_render_reference(range(81)).replace("0", "5"))
@example(sd.render_grid([3] * 81).replace("\n", "\r\n"))
@example(sd.render_grid([3] * 81).replace(" ", "\t"))
@example(sd.render_grid([3] * 81).replace("3", "٣", 1))
def test_parse_answer_agrees_with_the_token_parser(text):
    parsed = sudoku_parse_reference(text)
    expected = ((False, False) if parsed is None
                else (True, parsed == CHECKED_SOLUTION))
    assert sd.check(CHECKED, text) == expected


def test_verify_rejects_wrong_grid():
    inst = sd.build_instance(0, derive_seed(808, 0))
    wrong = list(sudoku_puzzle(inst).solution)
    wrong[0], wrong[1] = wrong[1], wrong[0]
    assert sd.check(inst, sd.render_grid(wrong)) == (True, False)
