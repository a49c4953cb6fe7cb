import random

import pytest
from helpers import selfref_consistent_count

from traceforge import xtasks as xt
from traceforge.core import ProblemInstance, TaskKind, derive_seed
from traceforge.tasks import TASKS


def with_truth(task, ground_truth):
    return ProblemInstance(id=0, task=task, prompt="",
                           ground_truth=ground_truth, seed=0, meta={})

# --- color cube: rotation table properties -----------------------------------

# independent model: faces as unit vectors, rotations as linear maps
_FACE_VEC = {
    "right": (1, 0, 0), "left": (-1, 0, 0),
    "front": (0, 1, 0), "back": (0, -1, 0),
    "top": (0, 0, 1), "bottom": (0, 0, -1),
}
_VEC_FACE = {v: f for f, v in _FACE_VEC.items()}

_LINEAR = {
    "tilt forward": lambda x, y, z: (x, z, -y),
    "tilt backward": lambda x, y, z: (x, -z, y),
    "turn left": lambda x, y, z: (-y, x, z),
    "turn right": lambda x, y, z: (y, -x, z),
    "roll left": lambda x, y, z: (-z, y, x),
    "roll right": lambda x, y, z: (z, y, -x),
}


def vector_final_color(problem: xt.CubeProblem) -> str:
    """Track stickers as vectors instead of face-name tables."""
    sticker = {_FACE_VEC[f]: c
               for f, c in zip(xt.FACES, problem.initial)}
    for rot in problem.rotations:
        move = _LINEAR[rot]
        sticker = {move(*vec): color for vec, color in sticker.items()}
    return sticker[_FACE_VEC[problem.query]]


def rotation_sources(rot):
    """new[face] = old[source], read off a cube painted with its face names."""
    return xt.apply_rotation({face: face for face in xt.FACES}, rot)


def test_rotation_sources_are_bijections():
    for rot in xt.ROTATIONS:
        sources = rotation_sources(rot)
        assert set(sources) == set(xt.FACES)
        assert set(sources.values()) == set(xt.FACES)


def test_each_rotation_is_a_four_cycle_with_fixed_axis():
    for rot in xt.ROTATIONS:
        sources = rotation_sources(rot)
        fixed = [f for f in xt.FACES if sources[f] == f]
        moved = [f for f in xt.FACES if sources[f] != f]
        assert len(fixed) == 2
        assert len(moved) == 4
        # the two fixed faces are an opposite pair
        assert frozenset(fixed) in (
            frozenset({"top", "bottom"}),
            frozenset({"front", "back"}),
            frozenset({"left", "right"}),
        )


def state():
    return dict(zip(xt.FACES, ("red", "blue", "green", "white", "yellow", "purple")))


@pytest.mark.parametrize("rot", sorted(xt.ROTATIONS))
def test_four_applications_are_identity(rot):
    s = state()
    for _ in range(4):
        s = xt.apply_rotation(s, rot)
    assert s == state()


@pytest.mark.parametrize(
    "rot,inverse",
    [
        ("tilt forward", "tilt backward"),
        ("turn left", "turn right"),
        ("roll left", "roll right"),
    ],
)
def test_inverse_rotation_pairs(rot, inverse):
    s = xt.apply_rotation(state(), rot)
    assert xt.apply_rotation(s, inverse) == state()
    s = xt.apply_rotation(state(), inverse)
    assert xt.apply_rotation(s, rot) == state()


def test_opposite_color_pairs_are_invariant():
    pairs_of = lambda s: {
        frozenset({s["top"], s["bottom"]}),
        frozenset({s["front"], s["back"]}),
        frozenset({s["left"], s["right"]}),
    }
    s = state()
    want = pairs_of(s)
    rng = random.Random(4)
    names = sorted(xt.ROTATIONS)
    for _ in range(50):
        s = xt.apply_rotation(s, names[rng.randrange(len(names))])
        assert pairs_of(s) == want


def test_single_rotations_hand_checked():
    s = xt.apply_rotation(state(), "tilt forward")
    assert s["front"] == "red"      # top sticker lands on the front
    assert s["bottom"] == "green"   # front sticker slides under
    s = xt.apply_rotation(state(), "turn right")
    assert s["right"] == "green"    # front sticker swings right
    assert s["top"] == "red"        # vertical axis untouched


def test_final_color_matches_vector_model():
    for i in range(200):
        problem = xt.cube_generate(random.Random(derive_seed(71, i)))
        assert problem.final_color() == vector_final_color(problem)


def test_cube_generate_shape():
    for i in range(30):
        p = xt.cube_generate(random.Random(i))
        assert len(set(p.initial)) == 6
        assert set(p.initial) <= set(xt.PALETTE)
        lo, hi = xt.ROTATIONS_RANGE
        assert lo <= len(p.rotations) <= hi
        assert p.query in xt.FACES


def test_cube_prompt_mentions_every_rotation():
    p = xt.cube_generate(random.Random(12))
    prompt = xt.cube_prompt(p)
    assert f"rotated {len(p.rotations)} times" in prompt
    assert "first it is" in prompt
    for rot in p.rotations:
        assert xt.ROTATIONS[rot][0] in prompt
    assert f"what color is the {p.query} face?" in prompt


def test_cube_verify_is_case_insensitive():
    red = with_truth(TaskKind.COLOR_CUBE, "red")
    check = TASKS[TaskKind.COLOR_CUBE].check
    assert check(red, "red") == (True, True)
    assert check(red, " RED ") == (True, True)
    assert check(red, "blue") == (True, False)
    assert check(red, "") == (False, False)


def test_cube_instance_round_trips():
    inst = xt.build_cube_instance(0, 444)
    assert inst.task == TaskKind.COLOR_CUBE
    problem = xt.CubeProblem(
        tuple(inst.meta["initial"]),
        tuple(inst.meta["rotations"]),
        inst.meta["query"],
    )
    assert inst.ground_truth == problem.final_color()
    assert inst.prompt == xt.cube_prompt(problem)


# --- self-referential statements ---------------------------------------------


def test_selfref_all_exactly_seven():
    stmts = (("exactly", 7),) * 7
    # all-true works (7 of 7 true) and all-false works (each claim fails)
    assert xt.selfref_count(stmts) == 2


def test_selfref_at_least_zero_forces_all_true():
    stmts = (("at_least", 0),) * 7
    assert xt.selfref_count(stmts) == 1


def test_selfref_liar_paradox_has_no_assignment():
    stmts = (("says_false", 1),) + tuple(
        ("says_true", i) for i in range(2, 8)
    )
    assert xt.selfref_count(stmts) == 0


def test_selfref_self_affirming_statements_double_the_count():
    stmts = tuple(("says_true", i + 1) for i in range(7))
    # every statement refers to itself, so each picks true or false freely
    assert xt.selfref_count(stmts) == 2**7


def test_selfref_count_matches_bitset_evaluator():
    for i in range(500):
        statements, count = xt.selfref_generate(random.Random(derive_seed(81, i)))
        assert count == selfref_consistent_count(statements)


def test_selfref_draws_cover_each_kind_value_range():
    # a says_* value of 0 would read a[-1], statement 7, without an error
    seen = {kind: set() for kind in xt.STATEMENTS}
    for i in range(2000):
        statements, _ = xt.selfref_generate(random.Random(derive_seed(91, i)))
        for kind, value in statements:
            seen[kind].add(value)
    assert seen["says_true"] == seen["says_false"] == set(range(1, 8))
    for kind in ("exactly", "at_least", "at_most"):
        assert seen[kind] == set(range(0, 8))


def test_statement_text_forms():
    def text(kind, value):
        return xt.STATEMENTS[kind][0].format(value)

    assert text("says_true", 3) == "Statement 3 is true."
    assert text("says_false", 1) == "Statement 1 is false."
    assert text("exactly", 4) == (
        "Exactly 4 of these 7 statements are true."
    )
    assert text("at_least", 2) == (
        "At least 2 of these 7 statements are true."
    )
    assert text("at_most", 6) == (
        "At most 6 of these 7 statements are true."
    )


def test_selfref_instance_round_trips():
    inst = xt.build_selfref_instance(0, 555)
    assert inst.task == TaskKind.SELF_REFERENCE
    stmts = tuple((k, v) for k, v in inst.meta["statements"])
    assert int(inst.ground_truth) == xt.selfref_count(stmts)
    for i in range(1, 8):
        assert f"{i}. " in inst.prompt


def test_selfref_verify():
    three = with_truth(TaskKind.SELF_REFERENCE, "3")
    check = TASKS[TaskKind.SELF_REFERENCE].check
    assert check(three, "3") == (True, True)
    assert check(three, " 3\n") == (True, True)
    assert check(three, "4") == (True, False)
    assert check(three, "three") == (False, False)
    # int() would accept both: an Arabic-Indic digit and an underscore
    assert check(three, "٣") == (False, False)
    ten = with_truth(TaskKind.SELF_REFERENCE, "10")
    assert check(ten, "1_0") == (False, False)


# --- verifier-only tasks -----------------------------------------------------


def test_zebra_verify():
    peter = with_truth(TaskKind.ZEBRA, "Peter")
    check = TASKS[TaskKind.ZEBRA].check
    assert check(peter, "peter") == (True, True)
    assert check(peter, " PETER ") == (True, True)
    assert check(peter, "Paul") == (True, False)
    assert check(peter, "") == (False, False)


def test_parse_number_list_variants():
    assert xt.parse_number_list("[1 2 3]") == (1, 2, 3)
    assert xt.parse_number_list("[1, 2, 3]") == (1, 2, 3)
    assert xt.parse_number_list("[1,2,3]") == (1, 2, 3)
    assert xt.parse_number_list(" [ 7 ] ") == (7,)
    assert xt.parse_number_list("[]") == ()
    assert xt.parse_number_list("[1.5, 2]") == (1.5, 2)
    assert xt.parse_number_list("[-3, 4]") == (-3, 4)


@pytest.mark.parametrize("text", ["1 2 3", "[1 2", "1 2]", "[a b]", "", "(1 2)",
                                  "[1_0]", "[１]", "[nan]"])
def test_parse_number_list_rejects(text):
    assert xt.parse_number_list(text) is None


def test_listfunc_verify():
    def check(truth, text):
        return TASKS[TaskKind.LIST_FUNCTIONS].check(
            with_truth(TaskKind.LIST_FUNCTIONS, truth), text)

    assert check("[1, 2, 3]", "[1 2 3]") == (True, True)
    assert check([1, 2, 3], "[1, 2, 3]") == (True, True)
    assert check((1.5,), "[1.5]") == (True, True)
    assert check([1, 2], "[1, 2, 3]") == (True, False)
    assert check([1, 2, 3], "1 2 3") == (False, False)
    assert check([1, 2, 3], "[1, 2, 4]") == (True, False)
