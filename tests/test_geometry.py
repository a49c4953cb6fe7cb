import math
from decimal import Decimal
from fractions import Fraction

import pytest
from helpers import round_half_away_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforge import xtasks as xt
from traceforge.core import ProblemInstance, Rng, TaskKind, derive_seed
from traceforge.reward import check_answer
from traceforge.tasks import TASKS


def with_truth(task, ground_truth):
    return ProblemInstance(id=0, task=task, prompt="",
                           ground_truth=ground_truth, seed=0, meta={})

# --- decimal formatting ------------------------------------------------------


@pytest.mark.parametrize(
    "value,places,expected",
    [
        (2.675, 2, "2.68"),
        (-2.5, 0, "-3"),
        (2.5, 0, "3"),
        (0.125, 2, "0.13"),
        (1.0005, 3, "1.001"),
        (-0.0001, 3, "0.000"),     # negative zero normalized
        (180.0, 2, "180.00"),
        (Fraction(1, 3), 3, "0.333"),
        (Fraction(2, 3), 3, "0.667"),
        (Fraction(1, 2), 0, "1"),
        (Fraction(-5, 2), 0, "-3"),
        (Fraction(1, 8), 2, "0.13"),
        (Fraction(-1, 8), 2, "-0.13"),
        (Fraction(0), 3, "0.000"),
        (Fraction(7), 2, "7.00"),
        (Fraction(-1, 2000), 3, "-0.001"),
        (Fraction(-1, 2001), 3, "0.000"),
    ],
)
def test_round_half_away_hand_cases(value, places, expected):
    assert xt.round_half_away(value, places) == expected


@settings(max_examples=300)
@given(
    num=st.integers(-10**7, 10**7),
    den=st.integers(1, 10**6),
    places=st.integers(0, 4),
)
def test_round_half_away_fraction_characterization(num, den, places):
    value = Fraction(num, den)
    out = xt.round_half_away(value, places)
    got = Fraction(Decimal(out))
    ulp = Fraction(1, 10**places)
    diff = got - value
    assert abs(diff) <= ulp / 2
    if abs(diff) == ulp / 2:  # tie must round away from zero
        assert abs(got) > abs(value)
    # fixed-point shape
    if places:
        assert len(out.split(".")[1]) == places
    else:
        assert "." not in out


@settings(max_examples=500)
@given(value=st.floats(-1e16, 1e16) | st.decimals(-1000, 1000, places=4),
       places=st.integers(0, 3))
@example(2.675, 2)
@example(-2.675, 2)
@example(1.0005, 3)
@example(-0.0, 2)
@example(1e-07, 3)
@example(-1e-07, 0)
@example(1e16, 3)
def test_round_half_away_matches_the_decimal_reference(value, places):
    assert xt.round_half_away(value, places) == \
        round_half_away_reference(value, places)


def test_round_half_away_fraction_avoids_float_artifacts():
    # 0.1 + 0.2 style values must not leak binary noise
    assert xt.round_half_away(Fraction(3, 10), 1) == "0.3"
    assert xt.round_half_away(Fraction(2675, 1000), 2) == "2.68"


# --- triangles ---------------------------------------------------------------


def sample_triangles(n, master=909):
    for i in range(n):
        yield xt.sample_triangle(Rng(derive_seed(master, i)))


def test_sample_triangle_in_range_and_nondegenerate():
    lo, hi = xt.COORD_RANGE
    for tri in sample_triangles(50):
        assert xt.signed_area2(tri)
        assert len(set(tri)) == 3
        for x, y in tri:
            assert lo <= x <= hi and lo <= y <= hi


def test_angle_right_triangle_hand_computed():
    tri = ((0, 0), (4, 0), (0, 3))
    assert xt.format_angle(xt.angle_at(tri, 0)) == "90.00°"
    assert xt.format_angle(xt.angle_at(tri, 1)) == "36.87°"
    assert xt.format_angle(xt.angle_at(tri, 2)) == "53.13°"


def test_angle_sum_is_straight():
    for tri in sample_triangles(200):
        total = sum(xt.angle_at(tri, v) for v in range(3))
        assert math.isclose(total, 180.0, abs_tol=1e-9)


@pytest.mark.parametrize("measure", [
    lambda tri: xt.angle_at(tri, 0), xt.orthocenter, xt.incircle_radius,
], ids=["angle_at", "orthocenter", "incircle_radius"])
def test_angle_degenerate_rejected(measure):
    with pytest.raises(ValueError, match="degenerate triangle"):
        measure(((0, 0), (1, 1), (2, 2)))


def test_orthocenter_right_triangle_is_right_angle_vertex():
    tri = ((0, 0), (4, 0), (0, 3))
    assert xt.orthocenter(tri) == (Fraction(0), Fraction(0))


@settings(max_examples=200)
@given(st.tuples(*[st.integers(-12, 12) for _ in range(6)]))
def test_orthocenter_satisfies_both_altitudes_exactly(coords):
    ax, ay, bx, by, cx, cy = coords
    tri = ((ax, ay), (bx, by), (cx, cy))
    if not xt.signed_area2(tri):
        return
    hx, hy = xt.orthocenter(tri)
    # (H - A) . (C - B) == 0 and (H - B) . (C - A) == 0, in exact rationals
    assert (hx - ax) * (cx - bx) + (hy - ay) * (cy - by) == 0
    assert (hx - bx) * (cx - ax) + (hy - by) * (cy - ay) == 0


def test_incircle_345_triangle():
    tri = ((0, 0), (3, 0), (0, 4))
    assert xt.format_radius(xt.incircle_radius(tri)) == "1.000"


def test_incircle_radius_times_semiperimeter_is_area():
    for tri in sample_triangles(100):
        r = xt.incircle_radius(tri)
        (ax, ay), (bx, by), (cx, cy) = tri
        s = (math.dist((bx, by), (cx, cy)) + math.dist((ax, ay), (cx, cy))
             + math.dist((ax, ay), (bx, by))) / 2.0
        area = abs(xt.signed_area2(tri)) / 2.0
        assert abs(r * s - area) < 1e-9
        assert r > 0


# --- parsing and verification ------------------------------------------------


def test_parse_angle_strict():
    assert xt.parse_angle("36.87°") == Decimal("36.87")
    assert xt.parse_angle(" 90.00° ") == Decimal("90.00")
    # the last is 90.00° in Arabic-Indic digits
    for bad in ("36.87", "36.9°", "36.870°", "abc°", "°", "36,87°", "٩٠.٠٠°"):
        assert xt.parse_angle(bad) is None


def test_parse_point_separator_variants():
    for text in ("(1.500, -2.000)", "(1.500,-2.000)", "(1.500 -2.000)"):
        assert xt.parse_point(text) == (Decimal("1.500"), Decimal("-2.000"))
    for bad in ("1.500, -2.000", "(1.50, 2.00)", "(1.500; 2.000)",
                "(1.500, 2.000", "(1.5000, 2.0000)", "(١.٥٠٠, 2.000)"):
        assert xt.parse_point(bad) is None


def test_parse_radius_strict():
    assert xt.parse_radius("0.732") == Decimal("0.732")
    for bad in ("0.73", "0.7321", "r=0.732", "", "٠.٧٣٢"):
        assert xt.parse_radius(bad) is None


def test_verify_angle_decimal_equality():
    right = with_truth(TaskKind.GEOMETRY_ANGLE, "90.00°")
    check = TASKS[TaskKind.GEOMETRY_ANGLE].check
    assert check(right, "90.00°") == (True, True)
    assert check(right, "90.01°") == (True, False)
    assert check(right, "90") == (False, False)
    # written differently, equal as decimals
    assert check(right, "090.00°") == (True, True)


def test_verify_point_decimal_equality():
    point = with_truth(TaskKind.GEOMETRY_ORTHOCENTER, "(0.000, 1.250)")
    check = TASKS[TaskKind.GEOMETRY_ORTHOCENTER].check
    assert check(point, "(0.000, 1.250)") == (True, True)
    assert check(point, "(0.000,1.250)") == (True, True)
    assert check(point, "(-0.000, 1.250)") == (True, True)
    assert check(point, "(0.001, 1.250)") == (True, False)


def test_verify_radius():
    radius = with_truth(TaskKind.GEOMETRY_INCIRCLE, "1.000")
    check = TASKS[TaskKind.GEOMETRY_INCIRCLE].check
    assert check(radius, "1.000") == (True, True)
    assert check(radius, "1.001") == (True, False)


@pytest.mark.parametrize(
    "task,truth",
    [
        (TaskKind.GEOMETRY_ANGLE, "90.00"),
        (TaskKind.GEOMETRY_ANGLE, "ninety°"),
        (TaskKind.GEOMETRY_ORTHOCENTER, "1.0, 2.0"),
        (TaskKind.GEOMETRY_INCIRCLE, "1.0"),
    ],
)
def test_verify_malformed_truth_names_task_and_id(task, truth):
    inst = ProblemInstance(id=17, task=task, prompt="", ground_truth=truth,
                           seed=0, meta={})
    with pytest.raises(ValueError) as err:
        check_answer(inst, "1.000")
    assert f"{task.value} instance 17" in str(err.value)


# --- instances ---------------------------------------------------------------


def test_angle_instance_round_trips():
    inst = xt.build_angle_instance(0, 321)
    assert inst.task == TaskKind.GEOMETRY_ANGLE
    tri = tuple(tuple(p) for p in inst.meta["vertices"])
    truth = xt.format_angle(xt.angle_at(tri, inst.meta["vertex"]))
    assert inst.ground_truth == truth
    assert TASKS[inst.task].check(inst, inst.ground_truth) == (True, True)
    name = xt.VERTEX_NAMES[inst.meta["vertex"]]
    assert f"vertex {name}" in inst.prompt


def test_orthocenter_instance_round_trips():
    inst = xt.build_orthocenter_instance(1, 654)
    tri = tuple(tuple(p) for p in inst.meta["vertices"])
    x, y = xt.orthocenter(tri)
    assert inst.ground_truth == xt.format_point(x, y)
    assert TASKS[inst.task].check(inst, inst.ground_truth) == (True, True)


def test_incircle_instance_round_trips():
    inst = xt.build_incircle_instance(2, 987)
    tri = tuple(tuple(p) for p in inst.meta["vertices"])
    assert inst.ground_truth == xt.format_radius(xt.incircle_radius(tri))


def test_geometry_builders_deterministic():
    assert xt.build_angle_instance(0, 5) == xt.build_angle_instance(0, 5)
    assert xt.build_orthocenter_instance(0, 5) == xt.build_orthocenter_instance(0, 5)
    assert xt.build_incircle_instance(0, 5) == xt.build_incircle_instance(0, 5)
