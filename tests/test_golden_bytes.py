"""Dataset bytes pinned across commits.

``tests/golden.json`` holds every pin of generated bytes, and
``helpers.golden_value`` builds each one. The ``layout20/`` entries are the
files ``forge build --count 20 --seed 0`` writes: instance files for every
generator task, traced files for the three traced tasks at k in
{0, 1, 5, 10} and the shuffled countdown k=1 file, each with its manifest.
``digest/layout20`` hashes the listing of the instance and traced files,
and ``digest/wide`` hashes many more ids and depths.

A refactor must leave every pin unchanged. A change to the bytes is
deliberate: bump ``pipeline.SCHEMA_VERSION``, run
``python3 scripts/regolden.py`` and commit the diff of ``tests/golden.json``.
"""

import importlib.util
import json
from pathlib import Path

from helpers import GOLDEN_TABLE, golden_pins, golden_value, moved

from traceforge import pipeline

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "regolden.py"
_spec = importlib.util.spec_from_file_location("regolden", SCRIPT)
regolden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regolden)


def test_dataset_bytes_match_golden_hashes():
    assert not moved(golden_pins("layout20/")), "dataset bytes changed"
    assert not moved(golden_pins("digest/layout20"))


def test_wide_record_hash():
    assert not moved(golden_pins("digest/wide"))


# --- the table and its regenerate step ---------------------------------------


def test_golden_table_is_at_the_schema_version():
    table = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))
    assert table["schema_version"] == pipeline.SCHEMA_VERSION


def test_golden_entry_names_are_unique():
    entries = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))["entries"]
    names = [e["name"] for e in entries]
    assert len(set(names)) == len(names)


def test_golden_table_is_written_as_the_script_writes_it():
    text = GOLDEN_TABLE.read_text(encoding="utf-8")
    assert regolden.dump_table(json.loads(text)) == text


def small_table(version):
    """Two frozen instances and one small instance file, with the arc1d
    instance's value tampered."""
    entries = golden_pins("instance/countdown") + golden_pins("instance/arc1d")
    data = {"name": "cube/color_cube_instances.jsonl",
            "what": {"kind": "data", "of": "instances", "task": "color_cube",
                     "count": 2, "seed": 3}}
    entries.append({**data, "value": golden_value(data)})
    real = entries[1]["value"]
    entries[1] = {**entries[1], "value": real.replace('"id": 0', '"id": 1')}
    assert entries[1]["value"] != real
    return {"schema_version": version, "entries": entries}, real


def test_regolden_at_the_same_version_reports_and_writes_nothing(
        tmp_path, capsys):
    table, real = small_table(pipeline.SCHEMA_VERSION)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    before = path.read_bytes()
    assert regolden.regolden(path) == 1
    out = capsys.readouterr().out
    assert out.startswith("instance/arc1d: ")
    assert real in out and "instance/countdown" not in out
    assert path.read_bytes() == before


def test_regolden_below_the_schema_version_rewrites_the_table(
        tmp_path, capsys):
    table, real = small_table(pipeline.SCHEMA_VERSION - 1)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    assert regolden.regolden(path) == 0
    assert "1 of 3 pins moved" in capsys.readouterr().out
    rewritten = json.loads(path.read_text(encoding="utf-8"))
    assert rewritten["schema_version"] == pipeline.SCHEMA_VERSION
    assert [e["value"] for e in rewritten["entries"]] == [
        table["entries"][0]["value"], real, table["entries"][2]["value"]]
    assert regolden.regolden(path) == 0


def test_regolden_above_the_schema_version_fails(tmp_path, capsys):
    table, _ = small_table(pipeline.SCHEMA_VERSION + 1)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    before = path.read_bytes()
    assert regolden.regolden(path) == 2
    assert "above pipeline.SCHEMA_VERSION" in capsys.readouterr().err
    assert path.read_bytes() == before
