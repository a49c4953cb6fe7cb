"""Generators and verifiers for the auxiliary tasks: triangle geometry
(angle measure, orthocenter, incircle radius), color cube rotation, and
self-referential statement counting, plus verifier-only support for zebra
puzzles and list functions.

Number formatting follows one convention throughout: decimal strings are
rounded half away from zero to a fixed number of places. Each check reads
an answer and its ground truth with one grammar, so geometry compares exact
decimals, never floating-point text, and an unreadable truth is an error.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .core import ProblemInstance, TaskKind

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

@dataclass(frozen=True)
class Triangle:
    """Integer-coordinate triangle; vertices in the order A, B, C."""

    a: tuple
    b: tuple
    c: tuple

    @property
    def vertices(self):
        return (self.a, self.b, self.c)

    def signed_area2(self) -> int:
        (ax, ay), (bx, by), (cx, cy) = self.vertices
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def is_degenerate(self) -> bool:
        return self.signed_area2() == 0


COORD_RANGE = (-10, 10)
ANGLE_DECIMALS = 2
POINT_DECIMALS = 3  # orthocenter coordinates and incircle radius

VERTEX_NAMES = ("A", "B", "C")


def sample_triangle(rng: random.Random) -> Triangle:
    lo, hi = COORD_RANGE
    while True:
        pts = []
        while len(pts) < 3:
            p = (rng.randint(lo, hi), rng.randint(lo, hi))
            if p not in pts:
                pts.append(p)
        tri = Triangle(*pts)
        if not tri.is_degenerate():
            return tri


def angle_at(tri: Triangle, vertex: int) -> float:
    """Interior angle at vertex 0..2, in degrees."""
    if tri.is_degenerate():
        raise ValueError("degenerate triangle has no interior angles")
    p = tri.vertices[vertex]
    q = tri.vertices[(vertex + 1) % 3]
    r = tri.vertices[(vertex + 2) % 3]
    ux, uy = q[0] - p[0], q[1] - p[1]
    vx, vy = r[0] - p[0], r[1] - p[1]
    dot = ux * vx + uy * vy
    cosine = dot / math.sqrt((ux * ux + uy * uy) * (vx * vx + vy * vy))
    cosine = max(-1.0, min(1.0, cosine))
    return math.degrees(math.acos(cosine))


def orthocenter(tri: Triangle) -> tuple:
    """Exact rational orthocenter via two altitude equations."""
    if tri.is_degenerate():
        raise ValueError("degenerate triangle has no orthocenter")
    (ax, ay), (bx, by), (cx, cy) = tri.vertices
    # altitude through A is perpendicular to BC, through B perpendicular to AC
    d1x, d1y = cx - bx, cy - by
    d2x, d2y = cx - ax, cy - ay
    r1 = d1x * ax + d1y * ay
    r2 = d2x * bx + d2y * by
    det = d1x * d2y - d1y * d2x  # nonzero for non-collinear vertices
    x = Fraction(r1 * d2y - r2 * d1y, det)
    y = Fraction(d1x * r2 - d2x * r1, det)
    return x, y


def incircle_radius(tri: Triangle) -> float:
    """r = area / semiperimeter."""
    if tri.is_degenerate():
        raise ValueError("degenerate triangle has no incircle")
    (ax, ay), (bx, by), (cx, cy) = tri.vertices
    area = abs(tri.signed_area2()) / 2.0
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


def _read_alike(instance: ProblemInstance, text: str, parse):
    """(parseable, correct) of an answer read with ``parse``, which returns
    None for text it cannot read, against the ground truth read the same
    way. Raises ValueError when the ground truth does not parse."""
    want = parse(instance.ground_truth)
    if want is None:
        raise ValueError(f"ground truth {instance.ground_truth!r} does not parse")
    got = parse(text)
    if got is None:
        return False, False
    return True, got == want


_GEOMETRY_PARSERS = {
    TaskKind.GEOMETRY_ANGLE: parse_angle,
    TaskKind.GEOMETRY_ORTHOCENTER: parse_point,
    TaskKind.GEOMETRY_INCIRCLE: parse_radius,
}


def check_geometry(instance: ProblemInstance, text: str):
    """(parseable, correct) of a geometry answer, compared with the ground
    truth as exact decimals."""
    return _read_alike(instance, text, _GEOMETRY_PARSERS[instance.task])


def _triangle_text(tri: Triangle) -> str:
    parts = [f"{name}=({x}, {y})"
             for name, (x, y) in zip(VERTEX_NAMES, tri.vertices)]
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
    rng = random.Random(seed)
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
        meta={"vertices": [list(p) for p in tri.vertices], "vertex": vertex},
    )


def build_orthocenter_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = random.Random(seed)
    tri = sample_triangle(rng)
    x, y = orthocenter(tri)
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.GEOMETRY_ORTHOCENTER,
        prompt=ORTHOCENTER_PROMPT.format(triangle=_triangle_text(tri)),
        ground_truth=format_point(x, y),
        seed=seed,
        meta={"vertices": [list(p) for p in tri.vertices]},
    )


def build_incircle_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = random.Random(seed)
    tri = sample_triangle(rng)
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.GEOMETRY_INCIRCLE,
        prompt=INCIRCLE_PROMPT.format(triangle=_triangle_text(tri)),
        ground_truth=format_radius(incircle_radius(tri)),
        seed=seed,
        meta={"vertices": [list(p) for p in tri.vertices]},
    )


# --- color cube rotation -----------------------------------------------------

FACES = ("top", "bottom", "front", "back", "left", "right")
PALETTE = ("red", "orange", "yellow", "green", "blue", "cyan", "purple", "white")

# For each rotation, the face each sticker comes from: new[face] = old[source].
ROTATION_SOURCES = {
    "tilt forward": {"front": "top", "bottom": "front", "back": "bottom",
                     "top": "back", "left": "left", "right": "right"},
    "tilt backward": {"back": "top", "bottom": "back", "front": "bottom",
                      "top": "front", "left": "left", "right": "right"},
    "turn left": {"left": "front", "back": "left", "right": "back",
                  "front": "right", "top": "top", "bottom": "bottom"},
    "turn right": {"right": "front", "back": "right", "left": "back",
                   "front": "left", "top": "top", "bottom": "bottom"},
    "roll left": {"left": "top", "bottom": "left", "right": "bottom",
                  "top": "right", "front": "front", "back": "back"},
    "roll right": {"right": "top", "bottom": "right", "left": "bottom",
                   "top": "left", "front": "front", "back": "back"},
}

ROTATION_PHRASES = {
    "tilt forward": "tilted forward so the top face moves to the front",
    "tilt backward": "tilted backward so the top face moves to the back",
    "turn left": "turned left so the front face moves to the left",
    "turn right": "turned right so the front face moves to the right",
    "roll left": "rolled left so the top face moves to the left",
    "roll right": "rolled right so the top face moves to the right",
}


def apply_rotation(state: dict, rotation: str) -> dict:
    sources = ROTATION_SOURCES[rotation]
    return {face: state[sources[face]] for face in FACES}


def apply_sequence(state: dict, rotations) -> dict:
    for rot in rotations:
        state = apply_rotation(state, rot)
    return state


@dataclass(frozen=True)
class CubeProblem:
    initial: tuple    # colors in FACES order
    rotations: tuple
    query: str        # which face is asked about

    def initial_state(self) -> dict:
        return dict(zip(FACES, self.initial))

    def final_color(self) -> str:
        return apply_sequence(self.initial_state(), self.rotations)[self.query]


ROTATIONS_RANGE = (3, 8)

CUBE_PROMPT = (
    "A cube has six painted faces: the top is {top}, the bottom is {bottom}, "
    "the front is {front}, the back is {back}, the left is {left}, and the "
    "right is {right}. The cube is rotated {n} times: {sequence}. "
    "After these rotations, what color is the {query} face?"
)


def cube_generate(rng: random.Random) -> CubeProblem:
    colors = rng.sample(PALETTE, 6)
    n = rng.randint(*ROTATIONS_RANGE)
    names = sorted(ROTATION_SOURCES)
    rotations = tuple(names[rng.randrange(len(names))] for _ in range(n))
    query = FACES[rng.randrange(6)]
    return CubeProblem(tuple(colors), rotations, query)


def cube_prompt(problem: CubeProblem) -> str:
    phrases = [ROTATION_PHRASES[r] for r in problem.rotations]
    steps = [f"first it is {phrases[0]}"]
    steps += [f"then it is {p}" for p in phrases[1:]]
    sequence = ", ".join(steps)
    named = dict(zip(FACES, problem.initial))
    return CUBE_PROMPT.format(n=len(problem.rotations), sequence=sequence,
                              query=problem.query, **named)


def build_cube_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = random.Random(seed)
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


@dataclass(frozen=True)
class Statement:
    """One statement about the truth of the seven statements.

    Kinds: ``says_true``/``says_false`` refer to a statement by 1-based
    index; ``exactly``/``at_least``/``at_most`` constrain how many of the
    seven are true.
    """

    kind: str
    value: int

    def text(self) -> str:
        if self.kind == "says_true":
            return f"Statement {self.value} is true."
        if self.kind == "says_false":
            return f"Statement {self.value} is false."
        if self.kind == "exactly":
            return f"Exactly {self.value} of these 7 statements are true."
        if self.kind == "at_least":
            return f"At least {self.value} of these 7 statements are true."
        if self.kind == "at_most":
            return f"At most {self.value} of these 7 statements are true."
        raise ValueError(f"unknown statement kind {self.kind}")

    def holds(self, assignment, total: int) -> bool:
        if self.kind == "says_true":
            return assignment[self.value - 1]
        if self.kind == "says_false":
            return not assignment[self.value - 1]
        if self.kind == "exactly":
            return total == self.value
        if self.kind == "at_least":
            return total >= self.value
        if self.kind == "at_most":
            return total <= self.value
        raise ValueError(f"unknown statement kind {self.kind}")


def selfref_count(statements) -> int:
    """Number of consistent truth assignments.

    An assignment is consistent when statement i is true exactly if its
    claim holds under the assignment. Checked by brute force over all
    2^7 assignments.
    """
    count = 0
    for mask in range(1 << N_STATEMENTS):
        assignment = tuple(bool(mask >> i & 1) for i in range(N_STATEMENTS))
        total = sum(assignment)
        if all(st.holds(assignment, total) == assignment[i]
               for i, st in enumerate(statements)):
            count += 1
    return count


_SR_KINDS = ("says_true", "says_false", "exactly", "at_least", "at_most")


def selfref_generate(rng: random.Random):
    """Seven random statements and their consistent-assignment count."""
    statements = []
    for _ in range(N_STATEMENTS):
        kind = _SR_KINDS[rng.randrange(len(_SR_KINDS))]
        if kind in ("says_true", "says_false"):
            value = rng.randint(1, N_STATEMENTS)
        else:
            value = rng.randint(0, N_STATEMENTS)
        statements.append(Statement(kind, value))
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


def _read_integer(text: str) -> Optional[int]:
    t = text.strip()
    return int(t) if _INTEGER_RE.fullmatch(t) else None


def check_selfref(instance: ProblemInstance, text: str):
    """(parseable, correct) of a self_reference answer: one integer."""
    return _read_alike(instance, text, _read_integer)


def build_selfref_instance(instance_id: int, seed: int) -> ProblemInstance:
    rng = random.Random(seed)
    statements, count = selfref_generate(rng)
    listed = "\n".join(f"{i}. {st.text()}"
                       for i, st in enumerate(statements, start=1))
    return ProblemInstance(
        id=instance_id,
        task=TaskKind.SELF_REFERENCE,
        prompt=SELFREF_PROMPT.format(statements=listed),
        ground_truth=str(count),
        seed=seed,
        meta={"statements": [[st.kind, st.value] for st in statements]},
    )


# --- name answers (color cube, zebra) ----------------------------------------

def _read_name(text: str) -> Optional[str]:
    return text.strip().lower() or None


def check_name(instance: ProblemInstance, text: str):
    """(parseable, correct) of a color or person name, case-insensitive."""
    return _read_alike(instance, text, _read_name)


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


def _read_list(text) -> Optional[tuple]:
    # a ground truth may also be a JSON list in externally supplied instances
    if isinstance(text, (list, tuple)):
        return tuple(text)
    return parse_number_list(text)


def check_list(instance: ProblemInstance, text: str):
    """(parseable, correct) of a list_functions answer."""
    return _read_alike(instance, text, _read_list)
