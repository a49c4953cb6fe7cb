"""The README's code runs as written."""

import re
import shlex
from pathlib import Path

from traceforge.cli import main
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


def forge(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_forge_show_example_runs(capsys, monkeypatch):
    monkeypatch.delenv("FORGE_SEED", raising=False)
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)\n```$",
                      README.read_text(encoding="utf-8"), re.M | re.S)
    assert block, "README has no CLI code block"
    shows = [line for line in block[1].splitlines()
             if line.startswith("forge show")]
    assert len(shows) == 1, "README's CLI block has no single forge show"
    argv = shlex.split(shows[0])
    assert argv == ["forge", "show", "--task", "sudoku", "--backtracks", "5"]
    code, out, err = forge(capsys, *argv[1:])
    assert code == 0, err
    prompt, completion = out.split("=== completion ===\n")
    assert prompt.startswith("=== prompt ===\n")
    assert completion.count(MARKER_PHRASE) == 5
    record = build_record(TaskKind.SUDOKU, 0, 0, 5)
    assert out == (f"=== prompt ===\n{record.prompt}\n\n"
                   f"=== completion ===\n{record.completion}\n")


def test_forge_show_reads_the_seed_as_forge_and_refuses_negatives(
        capsys, monkeypatch):
    monkeypatch.delenv("FORGE_SEED", raising=False)
    show = ("show", "--task", "countdown", "--backtracks", "1")
    code, hex_seed, err = forge(capsys, *show, "--seed=0x10")
    assert code == 0, err
    assert hex_seed == forge(capsys, *show, "--seed=16")[1]
    monkeypatch.setenv("FORGE_SEED", "0x10")
    assert forge(capsys, *show, "--seed=3")[1] == hex_seed
    monkeypatch.delenv("FORGE_SEED")
    for bad in ("--seed=-1", "--seed=1_0", "--seed=18446744073709551616",
                "--backtracks=-1", "--id=-1", "--id=18446744073709551616"):
        code, out, err = forge(capsys, *show, bad)
        assert code == 1, bad
        assert "error:" in err
        assert out == ""
