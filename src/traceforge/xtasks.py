"""Generators and verifiers for the auxiliary tasks: triangle geometry
(angle measure, orthocenter, incircle radius), color cube rotation, and
self-referential statement counting, plus verifier-only support for zebra
puzzles and list functions.

Number formatting follows one convention throughout: decimal strings are
rounded half away from zero to a fixed number of places. Each task's check
is ``reads_alike(reader)``: it reads an answer and its ground truth with one
grammar, so geometry compares exact decimals, never floating-point text, and
an unreadable truth is an error.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import ProblemInstance, Rng, TaskKind

# --- decimal formatting ------------------------------------------------------

def round_half_away(value, places: int) -> str:
    """Fixed-point string with ties rounded away from zero.

    Accepts float, Fraction or Decimal, and rounds it exactly: a float is
    read as the shortest decimal that gives it back (its ``repr``), never
    through binary floating point. Negative zero is normalized to plain
    zero.
    """
    exact = Fraction(repr(value)) if isinstance(value, float) else Fraction(value)
    scaled = exact * 10 ** places
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


# --- triangle geometry -------------------------------------------------------

# A triangle is a tuple of three integer-coordinate points, in the order
# A, B, C.

def signed_area2(tri) -> int:
    """Twice the signed area of ``tri``; 0 exactly when it is degenerate."""
    (ax, ay), (bx, by), (cx, cy) = tri
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


COORD_RANGE = (-10, 10)
ANGLE_DECIMALS = 2
POINT_DECIMALS = 3  # orthocenter coordinates and incircle radius

VERTEX_NAMES = ("A", "B", "C")


def sample_triangle(rng: Rng) -> tuple:
    lo, hi = COORD_RANGE
    while True:
        pts = []
        while len(pts) < 3:
            p = (rng.randint(lo, hi), rng.randint(lo, hi))
            if p not in pts:
                pts.append(p)
        tri = tuple(pts)
        if signed_area2(tri):
            return tri


def angle_at(tri, vertex: int) -> float:
    """Interior angle at vertex 0..2, in degrees."""
    if not signed_area2(tri):
        raise ValueError("degenerate triangle has no interior angles")
    p = tri[vertex]
    q = tri[(vertex + 1) % 3]
    r = tri[(vertex + 2) % 3]
    ux, uy = q[0] - p[0], q[1] - p[1]
    vx, vy = r[0] - p[0], r[1] - p[1]
    dot = ux * vx + uy * vy
    cosine = dot / math.sqrt((ux * ux + uy * uy) * (vx * vx + vy * vy))
    cosine = max(-1.0, min(1.0, cosine))
    return math.degrees(math.acos(cosine))


def orthocenter(tri) -> tuple:
    """Exact rational orthocenter via two altitude equations."""
    if not signed_area2(tri):
        raise ValueError("degenerate triangle has no orthocenter")
    (ax, ay), (bx, by), (cx, cy) = tri
    # altitude through A is perpendicular to BC, through B perpendicular to AC
    d1x, d1y = cx - bx, cy - by
    d2x, d2y = cx - ax, cy - ay
    r1 = d1x * ax + d1y * ay
    r2 = d2x * bx + d2y * by
    det = d1x * d2y - d1y * d2x  # nonzero for non-collinear vertices
    x = Fraction(r1 * d2y - r2 * d1y, det)
    y = Fraction(d1x * r2 - d2x * r1, det)
    return x, y


def incircle_radius(tri) -> float:
    """r = area / semiperimeter."""
    area2 = signed_area2(tri)
    if not area2:
        raise ValueError("degenerate triangle has no incircle")
    (ax, ay), (bx, by), (cx, cy) = tri
    area = abs(area2) / 2.0
    sa = math.dist((bx, by), (cx, cy))
    sb = math.dist((ax, ay), (cx, cy))
    sc = math.dist((ax, ay), (bx, by))
    return area / ((sa + sb + sc) / 2.0)


def format_angle(value: float) -> str:
    return round_half_away(value, ANGLE_DECIMALS) + "°"


def format_point(x, y) -> str:
    return (f"({round_half_away(x, POINT_DECIMALS)}, "
            f"{round_half_away(y, POINT_DECIMALS)})")


def format_radius(value: float) -> str:
    return round_half_away(value, POINT_DECIMALS)


# what round_half_away writes for one or more places, in ASCII digits:
# Unicode \d would let other scripts' digits through
_DECIMAL = r"(-?[0-9]+\.[0-9]{%d})"
_ANGLE_RE = re.compile(_DECIMAL % ANGLE_DECIMALS + "°")
_POINT_NUMBER = _DECIMAL % POINT_DECIMALS
# coordinates separated by ", " or "," or " ", always inside parentheses
_POINT_RE = re.compile(rf"\({_POINT_NUMBER}(?:, |,| ){_POINT_NUMBER}\)")
_RADIUS_RE = re.compile(_POINT_NUMBER)


def parse_angle(text: str) -> Optional[Decimal]:
    m = _ANGLE_RE.fullmatch(text.strip())
    return Decimal(m.group(1)) if m else None


def parse_point(text: str) -> Optional[tuple]:
    m = _POINT_RE.fullmatch(text.strip())
    return (Decimal(m.group(1)), Decimal(m.group(2))) if m else None


def parse_radius(text: str) -> Optional[Decimal]:
    m = _RADIUS_RE.fullmatch(text.strip())
    return Decimal(m.group(1)) if m else None


def reads_alike(parse):
    """The ``(instance, text) -> (parseable, correct)`` check of a task whose
    answer and ground truth are read with one ``parse``, which returns None
    for text it cannot read. The readings are compared with ``==``; a
    ground truth that does not parse raises ValueError."""
    def check(instance: ProblemInstance, text: str):
        want = parse(instance.ground_truth)
        if want is None:
            raise ValueError(
                f"ground truth {instance.ground_truth!r} does not parse")
        got = parse(text)
        if got is None:
            return False, False
        return True, got == want
    return check


def _triangle_text(tri) -> str:
    parts = [f"{name}=({x}, {y})" for name, (x, y) in zip(VERTEX_NAMES, tri)]
    return ", ".join(parts)


ANGLE_PROMPT = (
    "In triangle ABC with vertices {triangle}, what is the measure of the "
    "interior angle at vertex {vertex}? Round to two decimal places and "
    "include the degree symbol."
)
ORTHOCENTER_PROMPT = (
    "Triangle ABC has vertices {triangle}. Find the coordinates of its "
    "orthocenter, rounded to three decimal places, in the form (x, y)."
)
INCIRCLE_PROMPT = (
    "Triangle ABC has vertices {triangle}. Find the radius of its "
    "incircle, rounded to three decimal places."
)


def build_angle_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = Rng(seed)
    tri = sample_triangle(rng)
    vertex = rng.randrange(3)
    truth = format_angle(angle_at(tri, vertex))
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.GEOMETRY_ANGLE,
        prompt=ANGLE_PROMPT.format(triangle=_triangle_text(tri),
                                   vertex=VERTEX_NAMES[vertex]),
        ground_truth=truth,
        seed=seed,
        meta={"vertices": [list(p) for p in tri], "vertex": vertex},
    )


def build_orthocenter_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = Rng(seed)
    tri = sample_triangle(rng)
    x, y = orthocenter(tri)
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.GEOMETRY_ORTHOCENTER,
        prompt=ORTHOCENTER_PROMPT.format(triangle=_triangle_text(tri)),
        ground_truth=format_point(x, y),
        seed=seed,
        meta={"vertices": [list(p) for p in tri]},
    )


def build_incircle_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = Rng(seed)
    tri = sample_triangle(rng)
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.GEOMETRY_INCIRCLE,
        prompt=INCIRCLE_PROMPT.format(triangle=_triangle_text(tri)),
        ground_truth=format_radius(incircle_radius(tri)),
        seed=seed,
        meta={"vertices": [list(p) for p in tri]},
    )


# --- color cube rotation -----------------------------------------------------

FACES = ("top", "bottom", "front", "back", "left", "right")
PALETTE = ("red", "orange", "yellow", "green", "blue", "cyan", "purple", "white")

# Each rotation's prompt phrase and the four faces it cycles: each of their
# stickers moves to the next face in the cycle, the last one's to the first.
ROTATIONS = {
    "tilt forward": ("tilted forward so the top face moves to the front",
                     ("top", "front", "bottom", "back")),
    "tilt backward": ("tilted backward so the top face moves to the back",
                      ("top", "back", "bottom", "front")),
    "turn left": ("turned left so the front face moves to the left",
                  ("front", "left", "back", "right")),
    "turn right": ("turned right so the front face moves to the right",
                   ("front", "right", "back", "left")),
    "roll left": ("rolled left so the top face moves to the left",
                  ("top", "left", "bottom", "right")),
    "roll right": ("rolled right so the top face moves to the right",
                   ("top", "right", "bottom", "left")),
}


def apply_rotation(state: dict, rotation: str) -> dict:
    a, b, c, d = ROTATIONS[rotation][1]
    new = dict(state)
    new[b], new[c], new[d], new[a] = state[a], state[b], state[c], state[d]
    return new


class CubeProblem(NamedTuple):
    initial: tuple    # colors in FACES order
    rotations: tuple
    query: str        # which face is asked about

    def final_color(self) -> str:
        state = dict(zip(FACES, self.initial))
        for rot in self.rotations:
            state = apply_rotation(state, rot)
        return state[self.query]


ROTATIONS_RANGE = (3, 8)

CUBE_PROMPT = (
    "A cube has six painted faces: the top is {top}, the bottom is {bottom}, "
    "the front is {front}, the back is {back}, the left is {left}, and the "
    "right is {right}. The cube is rotated {n} times: {sequence}. "
    "After these rotations, what color is the {query} face?"
)


def cube_generate(rng: Rng) -> CubeProblem:
    colors = rng.sample(PALETTE, 6)
    n = rng.randint(*ROTATIONS_RANGE)
    names = sorted(ROTATIONS)
    rotations = tuple(names[rng.randrange(len(names))] for _ in range(n))
    query = FACES[rng.randrange(6)]
    return CubeProblem(tuple(colors), rotations, query)


def cube_prompt(problem: CubeProblem) -> str:
    phrases = [ROTATIONS[r][0] for r in problem.rotations]
    steps = [f"first it is {phrases[0]}"]
    steps += [f"then it is {p}" for p in phrases[1:]]
    sequence = ", ".join(steps)
    named = dict(zip(FACES, problem.initial))
    return CUBE_PROMPT.format(n=len(problem.rotations), sequence=sequence,
                              query=problem.query, **named)


def build_cube_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = Rng(seed)
    problem = cube_generate(rng)
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.COLOR_CUBE,
        prompt=cube_prompt(problem),
        ground_truth=problem.final_color(),
        seed=seed,
        meta={
            "initial": list(problem.initial),
            "rotations": list(problem.rotations),
            "query": problem.query,
        },
    )


# --- self-referential statements ---------------------------------------------

N_STATEMENTS = 7


# A statement is a (kind, value) pair about the truth of the seven
# statements. ``says_true``/``says_false`` refer to a statement by 1-based
# index; ``exactly``/``at_least``/``at_most`` constrain how many of the seven
# are true. Each kind maps to its text template, its
# ``holds(assignment, total, value)`` and the lowest value it is drawn with
# (the highest is N_STATEMENTS); the table order is the draw order.
STATEMENTS = {
    "says_true": ("Statement {} is true.", lambda a, total, v: a[v - 1], 1),
    "says_false": ("Statement {} is false.", lambda a, total, v: not a[v - 1],
                   1),
    "exactly": ("Exactly {} of these 7 statements are true.",
                lambda a, total, v: total == v, 0),
    "at_least": ("At least {} of these 7 statements are true.",
                 lambda a, total, v: total >= v, 0),
    "at_most": ("At most {} of these 7 statements are true.",
                lambda a, total, v: total <= v, 0),
}


def selfref_count(statements) -> int:
    """Number of consistent truth assignments.

    An assignment is consistent when statement i is true exactly if its
    claim holds under the assignment. Checked by brute force over all
    2^7 assignments.
    """
    claims = [(STATEMENTS[kind][1], value) for kind, value in statements]
    count = 0
    for mask in range(1 << N_STATEMENTS):
        assignment = tuple(bool(mask >> i & 1) for i in range(N_STATEMENTS))
        total = sum(assignment)
        if all(holds(assignment, total, value) == assignment[i]
               for i, (holds, value) in enumerate(claims)):
            count += 1
    return count


_SR_KINDS = tuple(STATEMENTS)


def selfref_generate(rng: Rng):
    """Seven random statements and their consistent-assignment count."""
    statements = []
    for _ in range(N_STATEMENTS):
        kind = _SR_KINDS[rng.randrange(len(_SR_KINDS))]
        value = rng.randint(STATEMENTS[kind][2], N_STATEMENTS)
        statements.append((kind, value))
    statements = tuple(statements)
    return statements, selfref_count(statements)


SELFREF_PROMPT = (
    "Consider these 7 numbered statements:\n"
    "{statements}\n"
    "Each statement is either true or false, and a statement is true "
    "exactly when what it says holds. How many assignments of true and "
    "false to the 7 statements are consistent? Answer with a single integer."
)


_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def read_integer(text: str) -> Optional[int]:
    """One integer in ASCII digits (self_reference answers)."""
    t = text.strip()
    return int(t) if _INTEGER_RE.fullmatch(t) else None


def build_selfref_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = Rng(seed)
    statements, count = selfref_generate(rng)
    listed = "\n".join(f"{i}. {STATEMENTS[kind][0].format(value)}"
                       for i, (kind, value) in enumerate(statements, start=1))
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.SELF_REFERENCE,
        prompt=SELFREF_PROMPT.format(statements=listed),
        ground_truth=str(count),
        seed=seed,
        meta={"statements": [list(st) for st in statements]},
    )


# --- name answers (color cube, zebra) ----------------------------------------

def read_name(text: str) -> Optional[str]:
    """A color or person name, case-insensitive."""
    return text.strip().lower() or None


# --- list functions (verifier only) ------------------------------------------

# the characters of an int or float literal written with ASCII digits and
# no underscores; int() and float() then check the structure
_NUMBER_CHARS = re.compile(r"[0-9+\-.eE]+")
_LIST_SEPARATORS = re.compile(r"[\s,]+")


def parse_number_list(text: str) -> Optional[tuple]:
    """Bracketed numbers split on commas and/or whitespace.

    Accepts "[1 2 3]", "[1, 2, 3]" and "[1,2,3]"; the brackets are
    mandatory and the digits ASCII. Returns None when the text is not a
    bracketed number list.
    """
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        return None
    inner = t[1:-1].strip()
    if not inner:
        return ()
    out = []
    for tok in _LIST_SEPARATORS.split(inner):
        if not tok:
            continue
        if not _NUMBER_CHARS.fullmatch(tok):
            return None
        try:
            out.append(int(tok))
        except ValueError:
            try:
                out.append(float(tok))
            except ValueError:
                return None
    return tuple(out)


def read_list(text) -> Optional[tuple]:
    """A list_functions answer; a ground truth may also be a JSON list in
    externally supplied instances."""
    if isinstance(text, (list, tuple)):
        return tuple(text)
    return parse_number_list(text)
