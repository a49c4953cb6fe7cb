"""``core.Rng`` owns every draw that reaches dataset bytes.

The known answers were drawn with CPython 3.11.7's ``random.Random``, so
a seed keeps making the same bytes whatever ``random.py`` the interpreter
ships. The contract half reads each package
module's syntax tree, as ``test_imports.py`` does, and fails on any draw
that bypasses ``Rng``.
"""

import ast
import random
from pathlib import Path

import pytest

from traceforge.core import Rng

SRC = Path(__file__).resolve().parents[1] / "src" / "traceforge"

# (seed, method, args, the results of that many calls in a row, then the
# rng's next random(), which pins how many bits the calls consumed)
KNOWN_ANSWERS = [
    # randrange(1) still draws a bit and redraws while it is 1
    (0, "randrange", (1,), [0, 0, 0, 0, 0, 0], 0.9182343317851318),
    # n just above a power of two rejects almost half of its draws
    (1, "randrange", (9,), [2, 1, 4, 1, 7, 7, 7, 6], 0.7887233511355132),
    (2, "randrange", (17,), [1, 2, 2, 11, 5, 9, 8, 6], 0.6068017336408379),
    (3, "randrange", (129,), [60, 33, 94, 121, 16, 3], 0.9088184001853248),
    (4, "randrange", (7,), [1, 2, 0, 5, 3, 3, 1, 0], 0.06651509567958991),
    (5, "randrange", (1025,), [523, 734, 59, 953], 0.7759585674357169),
    (6, "randint", (1, 9), [2, 8, 5, 1, 1, 3, 8, 6], 0.31938566841289273),
    (7, "randint", (0, 16), [10, 4, 12, 1, 2, 3, 11, 1], 0.9097040631431023),
    (8, "randint", (-5, 5), [-2, 0, 1, -3, -2, -5], 0.08518526805075266),
    (9, "randint", (3, 3), [3, 3, 3, 3], 0.18614495446206514),
    (10, "shuffle", (10,), [[5, 2, 7, 1, 8, 4, 3, 6, 0, 9],
                            [6, 1, 5, 7, 8, 3, 9, 0, 2, 4]],
     0.04455638245043303),
    (11, "shuffle", (33,), [[21, 13, 23, 1, 24, 32, 22, 7, 26, 17, 0, 10, 11,
                             12, 8, 2, 4, 9, 30, 3, 25, 19, 20, 15, 31, 5, 6,
                             18, 27, 16, 14, 29, 28]],
     0.831701625349978),
    # more than 21 members for at most 5 picks: the set branch, which here
    # redraws both an index past the population and one already selected
    (12, "sample", (range(24), 5), [[15, 8, 21, 16, 11], [4, 12, 0, 11, 15],
                                    [8, 20, 14, 22, 19], [7, 17, 0, 21, 19]],
     0.145302794710103),
    (13, "sample", (range(21), 5), [[8, 9, 5, 7, 4], [7, 5, 4, 2, 6]],
     0.7446921713252124),
    (14, "sample", (range(30), 30), [[3, 19, 22, 24, 20, 16, 7, 8, 27, 9, 2,
                                      14, 25, 18, 12, 6, 15, 1, 4, 29, 5, 17,
                                      11, 28, 21, 23, 13, 0, 10, 26]],
     0.010605295387642766),
    # 6 picks make room for 21 + 4 ** 3 = 85 members before the set branch
    (15, "sample", (range(100), 6), [[26, 1, 66, 94, 4, 20],
                                     [30, 2, 7, 87, 18, 88]],
     0.9998162341661194),
    (16, "sample", (range(85), 6), [[46, 60, 61, 36, 53, 29],
                                    [57, 0, 52, 33, 30, 28]],
     0.010128373627344978),
    (17, "sample", ("abcdefgh", 3), [["g", "h", "c"], ["f", "c", "b"]],
     0.7661074377979527),
]


@pytest.mark.parametrize("seed, method, args, expected, after", KNOWN_ANSWERS,
                         ids=[f"{row[1]}-seed{row[0]}" for row in KNOWN_ANSWERS])
def test_draws_match_the_known_answers(seed, method, args, expected, after):
    rng = Rng(seed)
    got = []
    for _ in expected:
        if method == "shuffle":
            items = list(range(*args))
            rng.shuffle(items)
            got.append(items)
        else:
            got.append(getattr(rng, method)(*args))
    assert got == expected
    assert rng.random() == after


@pytest.mark.parametrize("items", [[], ["only"]], ids=["empty", "one"])
def test_shuffling_fewer_than_two_items_draws_nothing(items):
    rng = Rng(5)
    state = rng.getstate()
    rng.shuffle(items)
    assert rng.getstate() == state


@pytest.mark.parametrize("call", [
    lambda rng: rng.randrange(0),
    lambda rng: rng.randrange(-2),
    lambda rng: rng.randint(2, 1),
    lambda rng: rng.sample(range(3), 4),
    lambda rng: rng.sample(range(3), -1),
], ids=["randrange_0", "randrange_-2", "randint_2_1", "sample_4_of_3",
        "sample_negative"])
def test_empty_ranges_raise(call):
    with pytest.raises(ValueError):
        call(Rng(0))


# --- every draw in the package goes through Rng ------------------------------

# Draws that random.py defines and Rng does not; a call of any of them would
# make bytes that hang on the interpreter's random.py. What Rng builds on,
# the MT19937 generator's seeding, state, random() and getrandbits, stays.
UNOWNED = {name for name, value in vars(random.Random).items()
           if not name.startswith("_") and callable(value)
           and name not in vars(Rng)} - {"seed", "getstate", "setstate"}


def unowned_draws(source: str, module: str) -> list:
    """(line, what) for each way ``source`` could draw around ``Rng``: an
    import of ``random`` outside ``core``, any call on the ``random``
    module, and any call of a draw in :data:`UNOWNED`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + alias.name)
                      for alias in node.names
                      if alias.name == "random" and module != "core"]
        elif (isinstance(node, ast.ImportFrom) and node.module == "random"
                and node.level == 0):
            found.append((node.lineno, "from random import"))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            owner, name = node.func.value, node.func.attr
            if isinstance(owner, ast.Name) and owner.id == "random":
                found.append((node.lineno, "random." + name))
            elif name in UNOWNED:
                found.append((node.lineno, "." + name))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_draws_only_through_rng(path):
    assert unowned_draws(path.read_text(encoding="utf-8"), path.stem) == []


def test_unowned_draws_finds_each_bypass():
    source = ("import random\nfrom random import shuffle\n"
              "rng = random.Random(1)\nrng.choice([1, 2])\n"
              "rng.uniform(0, 1)\nrng.randint(1, 6)\nrng.sample(xs, 2)\n")
    assert unowned_draws(source, "arc1d") == [
        (1, "import random"), (2, "from random import"),
        (3, "random.Random"), (4, ".choice"), (5, ".uniform")]
    assert unowned_draws("import random\nclass Rng(random.Random): pass\n",
                         "core") == []
