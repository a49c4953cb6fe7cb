import json

import pytest
from helpers import wrap

from traceforge import pipeline
from traceforge.cli import main

# every invocation goes through main(argv) so exit codes are exercised too


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_jsonl(path, objects):
    path.write_text("".join(json.dumps(o) + "\n" for o in objects),
                    encoding="utf-8")


def test_generate_writes_instances_and_manifest(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--task", "countdown",
                       "--count", "4", "--seed", "9", "--out", str(tmp_path))
    assert code == 0
    data = tmp_path / "countdown_instances.jsonl"
    assert data.exists()
    assert (tmp_path / "countdown_instances.jsonl.manifest.json").exists()
    assert "wrote 4 instances" in out
    assert len(pipeline.load_instances(data)) == 4


def test_trace_writes_records(tmp_path, capsys):
    code, out, _ = run(capsys, "trace", "--task", "arc1d", "--backtracks", "2",
                       "--count", "3", "--seed", "5", "--out", str(tmp_path))
    assert code == 0
    data = tmp_path / "arc1d_k2.jsonl"
    records = pipeline.load_records(data)
    assert [r.backtracks for r in records] == [2, 2, 2]
    manifest = json.loads(
        (tmp_path / "arc1d_k2.jsonl.manifest.json").read_text())
    assert manifest["backtracks"] == 2


def test_trace_workers_flag_matches_serial(tmp_path, capsys):
    code, _, _ = run(capsys, "trace", "--task", "countdown", "--backtracks", "1",
                     "--count", "8", "--seed", "3", "--out", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run(capsys, "trace", "--task", "countdown", "--backtracks", "1",
                     "--count", "8", "--seed", "3", "--out", str(tmp_path / "b"),
                     "--workers", "3")
    assert code == 0
    assert (tmp_path / "a" / "countdown_k1.jsonl").read_bytes() == \
        (tmp_path / "b" / "countdown_k1.jsonl").read_bytes()


def test_env_seed_overrides_flag(tmp_path, capsys, monkeypatch):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "9", "--out", str(tmp_path / "flag"))
    monkeypatch.setenv("FORGE_SEED", "9")
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "12345", "--out", str(tmp_path / "env"))
    assert (tmp_path / "flag" / "countdown_instances.jsonl").read_bytes() == \
        (tmp_path / "env" / "countdown_instances.jsonl").read_bytes()


def test_hex_seed_accepted(tmp_path, capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "0x10", "--out", str(tmp_path / "hexed"))
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "16", "--out", str(tmp_path / "dec"))
    assert (tmp_path / "hexed" / "countdown_instances.jsonl").read_bytes() == \
        (tmp_path / "dec" / "countdown_instances.jsonl").read_bytes()


def test_bad_seed_is_a_validation_error(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--task", "countdown", "--count", "2",
                       "--seed", "banana", "--out", str(tmp_path))
    assert code == 1
    assert "seed" in err
    code, _, _ = run(capsys, "generate", "--task", "countdown", "--count", "2",
                     "--seed", "-4", "--out", str(tmp_path))
    assert code == 1


def test_shuffle_round_trip(tmp_path, capsys):
    run(capsys, "trace", "--task", "countdown", "--backtracks", "1",
        "--count", "6", "--seed", "3", "--out", str(tmp_path))
    src = tmp_path / "countdown_k1.jsonl"
    dst = tmp_path / "countdown_k1_shuffled.jsonl"
    code, out, _ = run(capsys, "shuffle", "--in", str(src), "--seed", "2",
                       "--out", str(dst))
    assert code == 0
    originals = pipeline.load_records(src)
    shuffled = pipeline.load_records(dst)
    for a, b in zip(originals, shuffled):
        assert a.instance_id == b.instance_id
        assert a.completion != b.completion
    manifest = json.loads(
        (tmp_path / "countdown_k1_shuffled.jsonl.manifest.json").read_text())
    assert manifest["task"] == "countdown"
    assert manifest["count"] == 6


def test_score_writes_breakdowns(tmp_path, capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "3",
        "--seed", "9", "--out", str(tmp_path))
    inst_path = tmp_path / "countdown_instances.jsonl"
    instances = pipeline.load_instances(inst_path)
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [
        {"instance_id": 0, "completion": wrap(instances[0].ground_truth)},
        {"instance_id": 1, "completion": wrap("1 + 2")},
        {"instance_id": 2, "completion": "bare"},
    ])
    out_path = tmp_path / "scores.jsonl"
    code, out, _ = run(capsys, "score", "--task", "countdown",
                       "--instances", str(inst_path),
                       "--completions", str(comp_path),
                       "--out", str(out_path))
    assert code == 0
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["total"] for r in rows] == [1.0, 0.1, 0.0]
    assert [r["category"] for r in rows] == \
        ["correct", "incorrect", "incorrect_format"]


def test_score_ungated_flag(tmp_path, capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "1",
        "--seed", "9", "--out", str(tmp_path))
    inst_path = tmp_path / "countdown_instances.jsonl"
    truth = pipeline.load_instances(inst_path)[0].ground_truth
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [
        {"instance_id": 0, "completion": f"<answer>{truth}</answer>"},
    ])
    out_path = tmp_path / "scores.jsonl"
    code, _, _ = run(capsys, "score", "--task", "countdown",
                     "--instances", str(inst_path),
                     "--completions", str(comp_path),
                     "--out", str(out_path), "--ungated")
    assert code == 0
    row = json.loads(out_path.read_text().splitlines()[0])
    assert row["total"] == 0.9


def test_score_task_mismatch_fails(tmp_path, capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "1",
        "--seed", "9", "--out", str(tmp_path))
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": "x"}])
    code, _, err = run(capsys, "score", "--task", "sudoku",
                       "--instances", str(tmp_path / "countdown_instances.jsonl"),
                       "--completions", str(comp_path),
                       "--out", str(tmp_path / "s.jsonl"))
    assert code == 1
    assert "countdown" in err


def test_classify_writes_three_buckets(tmp_path, capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "9", "--out", str(tmp_path))
    inst_path = tmp_path / "countdown_instances.jsonl"
    instances = pipeline.load_instances(inst_path)
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [
        {"instance_id": 0, "completion": wrap(instances[0].ground_truth)},
        {"instance_id": 1, "completion": wrap("1 + 2")},
    ])
    out_dir = tmp_path / "buckets"
    code, out, _ = run(capsys, "classify", "--task", "countdown",
                       "--instances", str(inst_path),
                       "--completions", str(comp_path),
                       "--out", str(out_dir))
    assert code == 0
    assert len(pipeline.load_records(out_dir / "correct.jsonl")) == 1
    assert len(pipeline.load_records(out_dir / "incorrect.jsonl")) == 1
    assert pipeline.load_records(out_dir / "incorrect_format.jsonl") == []


def test_eval_prints_table(tmp_path, capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "9", "--out", str(tmp_path))
    inst_path = tmp_path / "countdown_instances.jsonl"
    truth = pipeline.load_instances(inst_path)[0].ground_truth
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": wrap(truth)}])
    code, out, _ = run(capsys, "eval", "--instances", str(inst_path),
                       "--completions", str(comp_path))
    assert code == 0
    assert "CD" in out
    assert "0.500" in out


def test_stats_prints_summary(tmp_path, capsys):
    run(capsys, "trace", "--task", "arc1d", "--backtracks", "1",
        "--count", "3", "--seed", "5", "--out", str(tmp_path))
    code, out, _ = run(capsys, "stats", "--in",
                       str(tmp_path / "arc1d_k1.jsonl"))
    assert code == 0
    summary = json.loads(out)
    assert summary["records"] == 3
    assert summary["backtracks"] == {"1": 3}


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--in", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "i/o error" in err


def test_bad_usage_returns_one(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "--task", "not-a-task",
                     "--count", "1", "--out", str(tmp_path))
    assert code == 1
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1
    code, _, _ = run(capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_impossible_trace_request_fails_cleanly(tmp_path, capsys):
    # arc1d cannot host 17 distinct wrong first attempts plus the right one
    code, _, err = run(capsys, "trace", "--task", "arc1d",
                       "--backtracks", "17", "--count", "1",
                       "--seed", "5", "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["score", "eval"])
@pytest.mark.parametrize(
    "task,truth",
    [
        ("geometry_orthocenter", "1.0, 2.0"),
        ("geometry_angle", "ninety°"),
        ("geometry_incircle", "1.0.0"),
        ("zebra", 5),
        ("list_functions", {"values": [1, 2]}),
    ],
    ids=["orthocenter", "angle", "incircle", "zebra", "list_functions"],
)
def test_malformed_ground_truth_is_a_validation_error(tmp_path, capsys,
                                                      command, task, truth):
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": 41, "task": task, "prompt": "?",
                             "ground_truth": truth, "seed": "0" * 16}])
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 41, "completion": wrap("1.000")}])
    argv = [command, "--instances", str(inst_path),
            "--completions", str(comp_path)]
    if command == "score":
        argv += ["--task", task, "--out", str(tmp_path / "scores.jsonl")]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "instance 41" in err
    assert "Traceback" not in err


def test_list_functions_truth_may_be_a_number_list(tmp_path, capsys):
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": 0, "task": "list_functions", "prompt": "?",
                             "ground_truth": [2, 4, 6], "seed": "0" * 16}])
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": wrap("[2 4 6]")}])
    code, out, _ = run(capsys, "eval", "--instances", str(inst_path),
                       "--completions", str(comp_path))
    assert code == 0
    assert "1.000" in out
