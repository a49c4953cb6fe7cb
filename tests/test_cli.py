import json

import pytest
from helpers import file_sha256s, golden_pins, wrap

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


@pytest.mark.parametrize("argv", [
    ("trace", "--task", "countdown", "--backtracks", "1", "--workers", "0"),
    ("build", "--workers", "-4"),
], ids=["trace", "build"])
def test_workers_below_one_is_a_validation_error(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--count", "2", "--out", str(out_dir))
    assert code == 1
    assert "argument --workers: must be at least 1" in err
    assert not out_dir.exists()


def test_workers_not_an_integer_is_a_validation_error(tmp_path, capsys):
    code, _, err = run(capsys, "trace", "--task", "countdown", "--backtracks",
                       "1", "--workers", "abc", "--count", "2",
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert "argument --workers: must be an integer, got 'abc'" in err


@pytest.mark.parametrize("argv", [
    ("generate", "--task", "countdown", "--count", "0"),
    ("trace", "--task", "countdown", "--count", "3", "--backtracks", "-1"),
    ("trace", "--task", "arc1d", "--count", "3", "--backtracks", "20"),
], ids=["generate_count_0", "trace_negative_k", "trace_arc1d_above_cap"])
def test_rejected_request_leaves_no_output_directory(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 1
    assert err.startswith("error:")
    assert not out_dir.exists()


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


def seed_run(capsys, monkeypatch, tmp_path, via, text):
    """``forge generate`` with ``text`` as its --seed or as FORGE_SEED."""
    argv = ["generate", "--task", "countdown", "--count", "2",
            "--out", str(tmp_path)]
    monkeypatch.delenv("FORGE_SEED", raising=False)
    if via == "env":
        monkeypatch.setenv("FORGE_SEED", text)
    else:
        argv += ["--seed", text]
    return run(capsys, *argv)


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("text,value", [
    ("0", 0), ("08", 8), ("16", 16), ("0x10", 16), ("0xfF", 255),
    (str(2**64 - 1), 2**64 - 1)])
def test_seed_grammar_accepts_decimal_and_hex(tmp_path, capsys, monkeypatch,
                                              via, text, value):
    code, _, _ = seed_run(capsys, monkeypatch, tmp_path, via, text)
    assert code == 0
    manifest = json.loads(
        (tmp_path / "countdown_instances.jsonl.manifest.json").read_text())
    assert manifest["master_seed"] == f"{value:016x}"


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("text", [
    "0b101", "0o17", "1_000", " 7", "7 ", "7\n", "+7", "-4", "0x", "0X10",
    "0x1g", "", "\uff17", "banana"])
def test_seed_grammar_rejects_other_spellings(tmp_path, capsys, monkeypatch,
                                              via, text):
    code, _, err = seed_run(capsys, monkeypatch, tmp_path, via, text)
    assert code == 1
    assert err == ("error: seed must be decimal digits or 0x and hex "
                   f"digits, got {text!r}\n")
    assert not (tmp_path / "countdown_instances.jsonl").exists()


# derive_seed keeps 64 bits, so a seed of 2**64 would write --seed 0's bytes
@pytest.mark.parametrize("seed", ["0x10000000000000000", str(2**64)])
def test_seed_above_64_bits_is_a_validation_error(tmp_path, capsys, seed):
    code, _, err = run(capsys, "generate", "--task", "countdown", "--count", "3",
                       "--seed", seed, "--out", str(tmp_path))
    assert code == 1
    assert err == f"error: seed must be 0 to 2**64 - 1, got {seed!r}\n"
    assert not (tmp_path / "countdown_instances.jsonl").exists()


def test_env_seed_above_64_bits_is_a_validation_error(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("FORGE_SEED", "0x10000000000000000")
    code, _, err = run(capsys, "generate", "--task", "countdown", "--count", "3",
                       "--out", str(tmp_path))
    assert code == 1
    assert "'0x10000000000000000'" in err


def test_largest_seed_accepted(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "--task", "countdown", "--count", "3",
                     "--seed", "0xffffffffffffffff", "--out", str(tmp_path))
    assert code == 0
    manifest = json.loads(
        (tmp_path / "countdown_instances.jsonl.manifest.json").read_text())
    assert manifest["master_seed"] == "f" * 16


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


@pytest.mark.parametrize("command", ["shuffle", "score"])
def test_output_file_in_a_new_directory(tmp_path, capsys, command):
    run(capsys, "trace", "--task", "countdown", "--backtracks", "1",
        "--count", "2", "--seed", "3", "--out", str(tmp_path))
    out_path = tmp_path / "new" / "deeper" / "out.jsonl"
    if command == "shuffle":
        argv = ("--in", str(tmp_path / "countdown_k1.jsonl"))
    else:
        comp_path = tmp_path / "completions.jsonl"
        write_jsonl(comp_path, [{"instance_id": 0, "completion": "x"}])
        run(capsys, "generate", "--task", "countdown", "--count", "1",
            "--seed", "3", "--out", str(tmp_path))
        argv = ("--task", "countdown", "--completions", str(comp_path),
                "--instances", str(tmp_path / "countdown_instances.jsonl"))
    code, _, err = run(capsys, command, *argv, "--out", str(out_path))
    assert code == 0, err
    assert len(out_path.read_text().splitlines()) == (
        2 if command == "shuffle" else 1)


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


def test_truncated_record_line_names_file_and_line(tmp_path, capsys):
    run(capsys, "trace", "--task", "countdown", "--backtracks", "0",
        "--count", "3", "--seed", "5", "--out", str(tmp_path))
    path = tmp_path / "countdown_k0.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text(lines[0] + "\n" + lines[1][:50] + "\n", encoding="utf-8")
    code, _, err = run(capsys, "stats", "--in", str(path))
    assert code == 1
    assert err.startswith(f"error: {path}:2: JSONDecodeError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field,value,message", [
    ("completion", None, "completion must be a string, got None"),
    ("prompt", 5, "prompt must be a string, got 5"),
    ("instance_id", 1.7, "instance_id must be a JSON integer, got 1.7"),
    ("instance_id", True, "instance_id must be a JSON integer, got True"),
    ("backtracks", "3", "backtracks must be a JSON integer, got '3'"),
    ("backtracks", 2.9, "backtracks must be a JSON integer, got 2.9"),
    ("correctness_label", "maybe", "correctness_label must be null or one "
     "of correct, incorrect, incorrect_format, got 'maybe'"),
    ("seed", "-1", "seed must be 16 lowercase hex digits, got '-1'"),
    ("seed", " 1_f ", "seed must be 16 lowercase hex digits, got ' 1_f '"),
    ("seed", "00000000000000AB",
     "seed must be 16 lowercase hex digits, got '00000000000000AB'"),
    ("seed", 5, "seed must be 16 lowercase hex digits, got 5"),
    ("completion", "\ud800", "completion is not UTF-8 text: surrogates not "
     "allowed at index 0"),
    ("prompt", "a\udfff", "prompt is not UTF-8 text: surrogates not allowed "
     "at index 1"),
], ids=["null_completion", "int_prompt", "float_id", "bool_id",
        "string_backtracks", "float_backtracks", "unknown_label",
        "signed_seed", "padded_seed", "upper_seed", "int_seed",
        "surrogate_completion", "surrogate_prompt"])
@pytest.mark.parametrize("command", ["stats", "shuffle"])
def test_record_field_of_wrong_type_names_file_and_line(tmp_path, capsys,
                                                        command, field, value,
                                                        message):
    run(capsys, "trace", "--task", "countdown", "--backtracks", "1",
        "--count", "3", "--seed", "5", "--out", str(tmp_path))
    path = tmp_path / "countdown_k1.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    objs[1][field] = value
    write_jsonl(path, objs)
    out_args = (["--out", str(tmp_path / "shuffled.jsonl")]
                if command == "shuffle" else [])
    code, out, err = run(capsys, command, "--in", str(path), *out_args)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}:2: ValueError: {message}\n"


def test_completion_line_without_text_names_file_and_line(tmp_path, capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "1", "--out", str(tmp_path))
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": wrap("1")},
                            {"instance_id": 1}])
    code, _, err = run(capsys, "eval", "--instances",
                       str(tmp_path / "countdown_instances.jsonl"),
                       "--completions", str(comp_path))
    assert code == 1
    assert f"{comp_path}:2: KeyError: 'completion'" in err


@pytest.mark.parametrize("item,message", [
    ({"instance_id": 0, "completion": 5},
     "ValueError: completion must be a string, got 5"),
    ({"instance_id": "abc", "completion": "x"},
     "ValueError: instance_id must be a JSON integer, got 'abc'"),
    ({"instance_id": 1.7, "completion": "x"},
     "ValueError: instance_id must be a JSON integer, got 1.7"),
    ({"instance_id": True, "completion": "x"},
     "ValueError: instance_id must be a JSON integer, got True"),
    ({"instance_id": 0, "completion": "\ud800"},
     "ValueError: completion is not UTF-8 text: surrogates not allowed at "
     "index 0"),
], ids=["int_completion", "string_id", "float_id", "bool_id",
        "surrogate_completion"])
def test_completion_line_of_wrong_type_names_file_and_line(tmp_path, capsys,
                                                          item, message):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "1", "--out", str(tmp_path))
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": wrap("1")}, item])
    code, out, err = run(capsys, "eval", "--instances",
                         str(tmp_path / "countdown_instances.jsonl"),
                         "--completions", str(comp_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {comp_path}:2: {message}\n"


def test_instance_id_that_is_not_an_integer_names_file_and_line(tmp_path,
                                                                 capsys):
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": "7", "task": "countdown", "prompt": "?",
                             "ground_truth": "1 + 2", "seed": "0" * 16,
                             "meta": {"numbers": [1, 2], "target": 3}}])
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 7, "completion": wrap("1 + 2")}])
    code, _, err = run(capsys, "eval", "--instances", str(inst_path),
                       "--completions", str(comp_path))
    assert code == 1
    assert err == (f"error: {inst_path}:1: ValueError: id must be a JSON "
                   f"integer, got '7'\n")


def test_instance_prompt_that_is_not_a_string_is_rejected(tmp_path, capsys):
    # a record rejects such a prompt, so classify must not write it into a
    # bucket that stats and shuffle then refuse
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": 0, "task": "countdown", "prompt": 123,
                             "ground_truth": "1 + 2", "seed": "0" * 16,
                             "meta": {"numbers": [1, 2], "target": 3}}])
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": wrap("1 + 2")}])
    out_dir = tmp_path / "buckets"
    code, _, err = run(capsys, "classify", "--task", "countdown",
                       "--instances", str(inst_path),
                       "--completions", str(comp_path), "--out", str(out_dir))
    assert code == 1
    assert err == (f"error: {inst_path}:1: ValueError: prompt must be a "
                   f"string, got 123\n")
    assert not out_dir.exists()


def test_completion_nested_past_the_decoder_names_file_and_line(tmp_path,
                                                                capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "1", "--out", str(tmp_path))
    comp_path = tmp_path / "completions.jsonl"
    comp_path.write_text("[" * 100_000 + "]" * 100_000 + "\n",
                         encoding="utf-8")
    code, out, err = run(capsys, "eval", "--instances",
                         str(tmp_path / "countdown_instances.jsonl"),
                         "--completions", str(comp_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {comp_path}:1: RecursionError: ")
    assert "Traceback" not in err


def test_unencodable_completion_fails_classify_before_any_write(tmp_path,
                                                                 capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "1", "--out", str(tmp_path))
    comp_path = tmp_path / "completions.jsonl"
    # the second line's lone surrogate would stop the writes after the
    # correct and incorrect buckets if it got that far
    write_jsonl(comp_path, [{"instance_id": 1, "completion": wrap("1")},
                            {"instance_id": 0, "completion": "\ud800"}])
    out_dir = tmp_path / "buckets"
    out_dir.mkdir()
    code, _, err = run(capsys, "classify", "--task", "countdown",
                       "--instances",
                       str(tmp_path / "countdown_instances.jsonl"),
                       "--completions", str(comp_path), "--out", str(out_dir))
    assert code == 1
    assert err == (f"error: {comp_path}:2: ValueError: completion is not "
                   f"UTF-8 text: surrogates not allowed at index 0\n")
    assert list(out_dir.iterdir()) == []


def test_unencodable_instance_prompt_is_rejected(tmp_path, capsys):
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": 0, "task": "countdown", "prompt": "\udc00?",
                             "ground_truth": "1 + 2", "seed": "0" * 16,
                             "meta": {"numbers": [1, 2], "target": 3}}])
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": wrap("1 + 2")}])
    code, _, err = run(capsys, "eval", "--instances", str(inst_path),
                       "--completions", str(comp_path))
    assert code == 1
    assert err == (f"error: {inst_path}:1: ValueError: prompt is not UTF-8 "
                   f"text: surrogates not allowed at index 0\n")


def test_escaped_surrogate_pair_still_loads(tmp_path, capsys):
    # json.dumps escapes the emoji as the pair "\ud83d\ude00", which decodes
    # to one character that UTF-8 encodes
    emoji = "\N{GRINNING FACE}"
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": 0, "task": "countdown",
                             "prompt": f"{emoji} 1, 2 -> 3",
                             "ground_truth": "1 + 2", "seed": "0" * 16,
                             "meta": {"numbers": [1, 2], "target": 3}}])
    assert "\\ud83d\\ude00" in inst_path.read_text(encoding="utf-8")
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0,
                             "completion": wrap("1 + 2") + emoji}])
    out_dir = tmp_path / "buckets"
    code, _, err = run(capsys, "classify", "--task", "countdown",
                       "--instances", str(inst_path),
                       "--completions", str(comp_path), "--out", str(out_dir))
    assert code == 0, err
    records = pipeline.load_records(out_dir / "correct.jsonl")
    assert records[0].prompt.startswith(emoji)
    assert records[0].completion.endswith(emoji)


@pytest.mark.parametrize("seed", ["-1", " 1_f ", "0" * 17, 0],
                         ids=["signed", "padded", "long", "int"])
def test_instance_seed_not_as_written_names_file_and_line(tmp_path, capsys,
                                                          seed):
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": 7, "task": "countdown", "prompt": "?",
                             "ground_truth": "1 + 2", "seed": seed,
                             "meta": {"numbers": [1, 2], "target": 3}}])
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 7, "completion": wrap("1 + 2")}])
    code, _, err = run(capsys, "eval", "--instances", str(inst_path),
                       "--completions", str(comp_path))
    assert code == 1
    assert err == (f"error: {inst_path}:1: ValueError: seed must be 16 "
                   f"lowercase hex digits, got {seed!r}\n")


def test_instance_meta_that_is_not_an_object_names_file_and_line(tmp_path,
                                                                 capsys):
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": 0, "task": "countdown", "prompt": "?",
                             "ground_truth": "1 + 2", "seed": "0" * 16,
                             "meta": []}])
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": wrap("1 + 2")}])
    code, _, err = run(capsys, "eval", "--instances", str(inst_path),
                       "--completions", str(comp_path))
    assert code == 1
    assert err == (f"error: {inst_path}:1: ValueError: meta must be a JSON "
                   f"object, got []\n")


def test_instances_of_another_task_are_a_validation_error(tmp_path, capsys):
    run(capsys, "generate", "--task", "countdown", "--count", "2",
        "--seed", "1", "--out", str(tmp_path))
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 0, "completion": wrap("1")}])
    code, _, err = run(capsys, "classify", "--task", "sudoku", "--instances",
                       str(tmp_path / "countdown_instances.jsonl"),
                       "--completions", str(comp_path),
                       "--out", str(tmp_path / "buckets"))
    assert code == 1
    assert "instance 0 is a countdown instance, but --task is sudoku" in err


def test_build_writes_the_layout_with_golden_bytes(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--out", str(tmp_path),
                       "--count", "20", "--seed", "0")
    assert code == 0
    assert file_sha256s(tmp_path) == {
        pin["name"].removeprefix("layout20/"): pin["value"]
        for pin in golden_pins("layout20/")}
    assert out.count("wrote 20 ") == 21
    assert "wrote 20 shuffled records to" in out


def test_build_workers_flag_matches_serial(tmp_path, capsys):
    for workers in ("1", "2"):
        code, _, _ = run(capsys, "build", "--out", str(tmp_path / workers),
                         "--count", "20", "--seed", "0", "--workers", workers)
        assert code == 0
    serial = {p.name: p.read_bytes() for p in (tmp_path / "1").iterdir()}
    assert len(serial) == 42
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "2").iterdir()} == serial


def test_build_with_one_record_fails_before_writing(tmp_path, capsys):
    out_dir = tmp_path / "layout"
    code, out, err = run(capsys, "build", "--out", str(out_dir),
                         "--count", "1")
    assert code == 1
    assert out == ""
    assert "--count must be at least 2" in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


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
    "task,truth,meta,answer",
    [
        ("geometry_orthocenter", "1.0, 2.0", {}, "1.000"),
        ("geometry_angle", "ninety°", {}, "1.000"),
        ("geometry_incircle", "1.0.0", {}, "1.000"),
        ("zebra", 5, {}, "1.000"),
        ("list_functions", {"values": [1, 2]}, {}, "1.000"),
        ("list_functions", [True, 2], {}, "[1, 2]"),
        ("list_functions", ["1", "2"], {}, "[1, 2]"),
        ("self_reference", "many", {}, "2"),
        ("color_cube", "   ", {}, "red"),
        # a traced task reads its meta only once the answer parses
        ("countdown", "1 + 2", {"numbers": [1, 2]}, "1 + 2"),
    ],
    ids=["orthocenter", "angle", "incircle", "zebra", "list_functions",
         "list_functions_bool", "list_functions_strings",
         "self_reference", "color_cube", "countdown_without_target"],
)
def test_malformed_ground_truth_is_a_validation_error(tmp_path, capsys,
                                                      command, task, truth,
                                                      meta, answer):
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(inst_path, [{"id": 41, "task": task, "prompt": "?",
                             "ground_truth": truth, "seed": "0" * 16,
                             "meta": meta}])
    comp_path = tmp_path / "completions.jsonl"
    write_jsonl(comp_path, [{"instance_id": 41, "completion": wrap(answer)}])
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
