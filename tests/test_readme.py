"""The README's code runs as written."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from traceforge.core import MARKER_PHRASE, TaskKind
from traceforge.pipeline import build_record

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs():
    block = re.search(r"^## Python API\n\n```python\n(.*?)^```$",
                      README.read_text(encoding="utf-8"), re.M | re.S)
    assert block, "README has no Python API code block"
    exec(compile(block[1], str(README), "exec"), {})


def test_trace_format_example_is_the_first_countdown_record():
    # the README names the block the first record of
    # `forge trace --task countdown --backtracks 1 --seed 0`
    block = re.search(r"^## Trace format\n.*?^```\n(.*?)\n^```$",
                      README.read_text(encoding="utf-8"), re.M | re.S)
    assert block, "README has no Trace format code block"
    record = build_record(TaskKind.COUNTDOWN, 0, 0, 1)
    assert block[1] == record.completion


def test_show_trace_script_runs():
    block = re.search(r"^## Scripts\n\n```sh\n(.*?)\n```$",
                      README.read_text(encoding="utf-8"), re.M | re.S)
    assert block, "README has no Scripts code block"
    argv = shlex.split(block[1])
    assert argv == ["python3", "scripts/show_trace.py", "--task", "sudoku",
                    "--backtracks", "5"]
    done = subprocess.run([sys.executable, *argv[1:]], cwd=README.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    prompt, completion = done.stdout.split("=== completion ===\n")
    assert prompt.startswith("=== prompt ===\n")
    assert completion.count(MARKER_PHRASE) == 5


def show_trace(*args):
    return subprocess.run([sys.executable, "scripts/show_trace.py", *args],
                          cwd=README.parent, capture_output=True, text=True,
                          timeout=120)


def test_show_trace_script_reads_the_seed_as_forge_and_refuses_negatives():
    hex_seed = show_trace("--seed=0x10")
    assert hex_seed.returncode == 0, hex_seed.stderr
    assert hex_seed.stdout == show_trace("--seed=16").stdout
    for bad in ("--seed=-1", "--seed=1_0", "--seed=18446744073709551616",
                "--backtracks=-1", "--id=-1"):
        done = show_trace(bad)
        assert done.returncode == 2, bad
        assert "usage:" in done.stderr and "Traceback" not in done.stderr
        assert done.stdout == ""
