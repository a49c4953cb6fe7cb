"""End-to-end acceptance suite.

Each test here checks one published bar for the whole toolkit: reward
semantics against a hand-labeled golden suite, trace construction at
every backtrack depth, solver agreement with independent oracles,
geometry numerics, the shuffle ablation, byte-level determinism, and
single-core throughput. Every test prints a one-line PASS/FAIL summary
(visible with ``pytest -rA`` or ``-s``).
"""

import hashlib
import math
import random
import re
import time
from decimal import Decimal

from helpers import arc1d_task, countdown_puzzle, countdown_solvable, \
    selfref_consistent_count, sudoku_puzzle, sudoku_solutions, wrap

from traceforge import arc1d, countdown, pipeline, sudoku, xtasks
from traceforge.core import (
    ProblemInstance,
    Rng,
    TaskKind,
    derive_seed,
    render_completion,
    render_sft_record,
)
from traceforge.reward import CORRECT, INCORRECT, INCORRECT_FORMAT, score
from traceforge.search import strip_detours

# distinct master seeds so no criterion reuses another's instances
SEED_REWARD = 101
SEED_TRACES = 102
SEED_ORACLE = 103
SEED_GEOMETRY = 104
SEED_SHUFFLE = 105
SEED_DETERMINISM = 106
SEED_THROUGHPUT = 107


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


# --- 1. reward semantics on a hand-labeled golden suite -----------------------
#
# 1,000 completions across all task families: 10 families x 10 instances
# x 10 labeled templates. Labels come from how each completion is
# constructed, never from score() itself.

def _labeled_cases(instance, wrong, gibberish, trap_a, trap_b):
    """Ten (completion, category, total) rows for one instance."""
    truth = instance.ground_truth
    return [
        (wrap(truth), CORRECT, 1.0),
        (wrap(wrong), INCORRECT, 0.1),
        (wrap(gibberish), INCORRECT_FORMAT, 0.1),
        # right answer, no think tags: gated reward pays nothing
        (f"<answer>{truth}</answer>", INCORRECT_FORMAT, 0.0),
        (wrap(wrong) + f"\n<answer>{wrong}</answer>", INCORRECT_FORMAT, 0.0),
        ("Let me solve this step by step.\nwork\n</think>\n\n"
         f"<answer>{truth}</answer>", INCORRECT_FORMAT, 0.0),
        ("", INCORRECT_FORMAT, 0.0),
        (wrap(""), INCORRECT_FORMAT, 0.1),
        trap_a,
        trap_b,
    ]


def _countdown_cases(i):
    inst = countdown.build_instance(i, derive_seed(SEED_REWARD, i))
    withheld_equals = f"{inst.ground_truth} = {inst.meta['target']}"
    return inst, _labeled_cases(
        inst, wrong="1 + 2", gibberish="thirty",
        trap_a=(wrap(withheld_equals), INCORRECT_FORMAT, 0.1),
        trap_b=(wrap("1.5 + 2"), INCORRECT_FORMAT, 0.1),
    )


def _sudoku_cases(i):
    inst = sudoku.build_instance(i, derive_seed(SEED_REWARD + 1, i))
    truth = inst.ground_truth
    swapped = truth.translate(str.maketrans("12", "21"))
    return inst, _labeled_cases(
        inst, wrong=swapped, gibberish="not a grid",
        trap_a=(wrap(truth.replace(" ", ", ")), INCORRECT_FORMAT, 0.1),
        trap_b=(wrap("\n".join(truth.split("\n")[:8])), INCORRECT_FORMAT, 0.1),
    )


def _arc1d_cases(i):
    inst = arc1d.build_instance(i, derive_seed(SEED_REWARD + 2, i))
    tokens = inst.ground_truth.split()
    bumped = " ".join([str((int(tokens[0]) + 1) % 10)] + tokens[1:])
    return inst, _labeled_cases(
        inst, wrong=bumped, gibberish="a b c",
        trap_a=(wrap(inst.ground_truth.replace(" ", ",")),
                INCORRECT_FORMAT, 0.1),
        trap_b=(wrap(inst.ground_truth + " x"), INCORRECT_FORMAT, 0.1),
    )


def _angle_cases(i):
    inst = xtasks.build_angle_instance(i, derive_seed(SEED_REWARD + 3, i))
    wrong = "10.00°" if inst.ground_truth != "10.00°" else "11.00°"
    return inst, _labeled_cases(
        inst, wrong=wrong, gibberish="west",
        trap_a=(wrap(inst.ground_truth.rstrip("°")), INCORRECT_FORMAT, 0.1),
        trap_b=(wrap(inst.ground_truth[:-1] + "0°"), INCORRECT_FORMAT, 0.1),
    )


def _orthocenter_cases(i):
    inst = xtasks.build_orthocenter_instance(i, derive_seed(SEED_REWARD + 4, i))
    wrong = "(0.000, 0.000)" if inst.ground_truth != "(0.000, 0.000)" \
        else "(1.000, 0.000)"
    two_places = re.sub(r"(\.\d{2})\d", r"\1", inst.ground_truth)
    return inst, _labeled_cases(
        inst, wrong=wrong, gibberish="origin",
        trap_a=(wrap(inst.ground_truth.strip("()")), INCORRECT_FORMAT, 0.1),
        trap_b=(wrap(two_places), INCORRECT_FORMAT, 0.1),
    )


def _incircle_cases(i):
    inst = xtasks.build_incircle_instance(i, derive_seed(SEED_REWARD + 5, i))
    wrong = "99.999" if inst.ground_truth != "99.999" else "98.999"
    return inst, _labeled_cases(
        inst, wrong=wrong, gibberish="small",
        trap_a=(wrap(inst.ground_truth[:-1]), INCORRECT_FORMAT, 0.1),
        trap_b=(wrap("r = " + inst.ground_truth), INCORRECT_FORMAT, 0.1),
    )


def _cube_cases(i):
    inst = xtasks.build_cube_instance(i, derive_seed(SEED_REWARD + 6, i))
    wrong = next(c for c in xtasks.PALETTE
                 if c.lower() != inst.ground_truth.lower())
    return inst, _labeled_cases(
        inst, wrong=wrong, gibberish="   ",
        # case variants of the right color still count as correct
        trap_a=(wrap(inst.ground_truth.upper()), CORRECT, 1.0),
        trap_b=(wrap(f"  {inst.ground_truth.capitalize()}  "), CORRECT, 1.0),
    )


def _selfref_cases(i):
    inst = xtasks.build_selfref_instance(i, derive_seed(SEED_REWARD + 7, i))
    return inst, _labeled_cases(
        inst, wrong=str(int(inst.ground_truth) + 1), gibberish="three",
        trap_a=(wrap(f" {inst.ground_truth} "), CORRECT, 1.0),
        trap_b=(wrap(inst.ground_truth + "."), INCORRECT_FORMAT, 0.1),
    )


_ZEBRA_NAMES = ("Peter", "Eva", "Carol", "Arnold", "Alice",
                "Bob", "Wendy", "Eric", "Sam", "Maria")


def _zebra_cases(i):
    inst = ProblemInstance(
        id=i, task=TaskKind.ZEBRA, prompt="Who owns the zebra?",
        ground_truth=_ZEBRA_NAMES[i], seed=i, meta={},
    )
    return inst, _labeled_cases(
        inst, wrong="Nobody", gibberish="   ",
        # case variants of the right name still count as correct
        trap_a=(wrap(inst.ground_truth.lower()), CORRECT, 1.0),
        trap_b=(wrap(inst.ground_truth.upper()), CORRECT, 1.0),
    )


_LIST_TRUTHS = ("[1, 2, 3]", "[4, 8]", "[0]", "[2, 2, 2, 2]", "[9, 7, 5]",
                "[10, 20, 30]", "[]", "[5, 4, 3, 2, 1]", "[6]",
                "[1, 1, 2, 3, 5, 8]")


def _listfunc_cases(i):
    inst = ProblemInstance(
        id=i, task=TaskKind.LIST_FUNCTIONS, prompt="Apply the rule.",
        ground_truth=_LIST_TRUTHS[i], seed=i, meta={},
    )
    return inst, _labeled_cases(
        inst, wrong="[9999]", gibberish="nums",
        trap_a=(wrap(inst.ground_truth.replace(",", "")), CORRECT, 1.0),
        trap_b=(wrap(inst.ground_truth.strip("[]")), INCORRECT_FORMAT, 0.1),
    )


_CASE_FAMILIES = (
    _countdown_cases, _sudoku_cases, _arc1d_cases, _angle_cases,
    _orthocenter_cases, _incircle_cases, _cube_cases, _selfref_cases,
    _zebra_cases, _listfunc_cases,
)


def test_reward_semantics_golden_suite():
    total = 0
    mismatches = []
    for family in _CASE_FAMILIES:
        for i in range(10):
            instance, cases = family(i)
            for n, (completion, category, expected_total) in enumerate(cases):
                got = score(instance, completion)
                total += 1
                if got.category != category or got.total != expected_total:
                    mismatches.append(
                        (family.__name__, i, n, category, expected_total,
                         got.category, got.total)
                    )
    ok = total == 1000 and not mismatches
    report("reward semantics", ok,
           f"{total - len(mismatches)}/{total} hand-labeled cases matched")
    assert total == 1000
    assert mismatches == []


# --- 2. trace construction at every backtrack depth ---------------------------
#
# For each traced task and k in {0, 1, 5, 10}: 1,000 traces with exactly
# k markers, answers scoring 1.0, and detour removal reproducing the
# clean k=0 rendering byte for byte. Under 60 s on one core.

def test_trace_construction_all_tasks_and_depths():
    jobs = (
        (countdown.build_traced, countdown_puzzle,
         countdown.make_trace, SEED_TRACES),
        (sudoku.build_traced, sudoku_puzzle,
         sudoku.make_trace, SEED_TRACES + 1),
        (arc1d.build_traced, arc1d_task,
         arc1d.make_trace, SEED_TRACES + 2),
    )
    count = 1000
    start = time.monotonic()
    checked = 0
    for build, rebuild, make, master in jobs:
        clean = {}  # id -> (prompt, k=0 rendering)
        for k in (0, 1, 5, 10):
            for i in range(count):
                instance, trace = build(i, derive_seed(master, i), k)
                completion = render_completion(trace)
                assert trace.backtracks == k
                assert pipeline.count_markers(completion) == k
                assert score(instance, completion).total == 1.0
                if k == 0:
                    clean[i] = (instance.prompt, completion)
                else:
                    cached = clean.get(i)
                    if cached is not None and cached[0] == instance.prompt:
                        plain = cached[1]
                    else:
                        # deeper k resampled a different puzzle; solve it clean
                        plain = render_completion(
                            make(rebuild(instance), 0, random.Random(0)))
                    assert render_completion(strip_detours(trace)) == plain
                checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 12 * count and elapsed < 60.0
    report("trace construction", ok,
           f"{checked} traces across 3 tasks x 4 depths in {elapsed:.1f}s")
    assert checked == 12 * count
    assert elapsed < 60.0


# --- 3. solver agreement with independent oracles -----------------------------

def test_solver_oracle_agreement():
    for i in range(500):
        inst = countdown.build_instance(i, derive_seed(SEED_ORACLE, i))
        puzzle = countdown_puzzle(inst)
        assert countdown.check(inst, inst.ground_truth) == (True, True)
        assert countdown_solvable(puzzle.numbers, puzzle.target)

    for i in range(200):
        inst = sudoku.build_instance(i, derive_seed(SEED_ORACLE + 1, i))
        givens = tuple(int(ch) for ch in inst.meta["givens"])
        found = sudoku_solutions(givens, limit=2)
        assert len(found) == 1
        assert "".join(map(str, found[0])) == inst.meta["solution"]
        assert sudoku.count_solutions(givens, limit=2) == 1

    disagreements = 0
    for i in range(10_000):
        rng = Rng(derive_seed(SEED_ORACLE + 2, i))
        statements, count = xtasks.selfref_generate(rng)
        if count != selfref_consistent_count(statements):
            disagreements += 1
    report("solver oracles", disagreements == 0,
           "500 countdown + 200 sudoku + 10000 self-reference agree")
    assert disagreements == 0


# --- 4. geometry numerics over random triangles -------------------------------

def test_geometry_numeric_bars():
    worst_sum = Decimal(0)
    worst_altitude = 0.0
    worst_radius = 0.0
    for i in range(10_000):
        rng = Rng(derive_seed(SEED_GEOMETRY, i))
        tri = xtasks.sample_triangle(rng)

        rounded = [Decimal(xtasks.format_angle(xtasks.angle_at(tri, v))[:-1])
                   for v in range(3)]
        gap = abs(sum(rounded) - Decimal(180))
        worst_sum = max(worst_sum, gap)

        hx, hy = xtasks.orthocenter(tri)
        (ax, ay), (bx, by), (cx, cy) = tri
        res = max(abs(float((hx - ax) * (cx - bx) + (hy - ay) * (cy - by))),
                  abs(float((hx - bx) * (cx - ax) + (hy - by) * (cy - ay))))
        worst_altitude = max(worst_altitude, res)

        r = xtasks.incircle_radius(tri)
        area = abs(xtasks.signed_area2(tri)) / 2.0
        semi = (math.dist((bx, by), (cx, cy)) + math.dist((ax, ay), (cx, cy))
                + math.dist((ax, ay), (bx, by))) / 2.0
        worst_radius = max(worst_radius, abs(r * semi - area))

    ok = (worst_sum <= Decimal("0.02") and worst_altitude < 1e-6
          and worst_radius < 1e-9)
    report("geometry numerics", ok,
           f"worst angle-sum gap {worst_sum}, altitude residual "
           f"{worst_altitude:.2e}, r*s-area {worst_radius:.2e} over 10000 triangles")
    assert worst_sum <= Decimal("0.02")
    assert worst_altitude < 1e-6
    assert worst_radius < 1e-9


# --- 5. shuffled completions are deranged and stop verifying ------------------

def test_shuffled_completions_are_deranged_and_wrong():
    count = 5000
    instances = {}
    records = []
    for i in range(count):
        instance, trace = countdown.build_traced(
            i, derive_seed(SEED_SHUFFLE, i), 1)
        instances[i] = instance
        records.append(render_sft_record(instance, trace))

    shuffled = pipeline.emit_shuffled(records, random.Random(SEED_SHUFFLE))
    for before, after in zip(records, shuffled):
        assert after.instance_id == before.instance_id
        assert after.completion != before.completion
    assert sorted(r.completion for r in shuffled) == \
        sorted(r.completion for r in records)

    still_correct = sum(
        1 for rec in shuffled
        if score(instances[rec.instance_id], rec.completion).category == CORRECT
    )
    rate = still_correct / count
    report("shuffle ablation", rate < 0.01,
           f"derangement of {count} records verified; "
           f"{still_correct} ({rate:.2%}) still score correct")
    assert rate < 0.01


# --- 6. byte-level determinism across reruns and worker counts ----------------

def test_pipeline_determinism_across_runs_and_workers(tmp_path):
    count = 10_000
    paths = [tmp_path / name for name in ("one.jsonl", "two.jsonl", "par.jsonl")]
    first = pipeline.emit_sft(TaskKind.COUNTDOWN, count, 1,
                              SEED_DETERMINISM, paths[0], workers=1)
    second = pipeline.emit_sft(TaskKind.COUNTDOWN, count, 1,
                               SEED_DETERMINISM, paths[1], workers=1)
    parallel = pipeline.emit_sft(TaskKind.COUNTDOWN, count, 1,
                                 SEED_DETERMINISM, paths[2], workers=4)
    digests = {m.sha256 for m in (first, second, parallel)}
    on_disk = {hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    ok = len(digests) == 1 and on_disk == digests
    report("determinism", ok,
           f"3 runs of {count} records (1, 1 and 4 workers) share sha256 "
           f"{first.sha256[:12]}…")
    assert len(digests) == 1
    assert on_disk == digests


# --- 7. single-core throughput ------------------------------------------------

def test_single_core_throughput():
    t0 = time.perf_counter()
    lines = pipeline.build_records(TaskKind.COUNTDOWN, 1500,
                                   SEED_THROUGHPUT, 1, workers=1)
    countdown_rate = len(lines) / (time.perf_counter() - t0)

    t0 = time.perf_counter()
    lines = pipeline.build_records(TaskKind.SUDOKU, 150,
                                   SEED_THROUGHPUT + 1, 5, workers=1)
    sudoku_rate = len(lines) / (time.perf_counter() - t0)

    ok = countdown_rate >= 1000 and sudoku_rate >= 50
    report("throughput", ok,
           f"countdown k=1 {countdown_rate:.0f} rec/s (need 1000), "
           f"sudoku k=5 {sudoku_rate:.0f} rec/s (need 50)")
    assert countdown_rate >= 1000
    assert sudoku_rate >= 50
