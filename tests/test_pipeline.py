import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from helpers import wrap

from traceforge import countdown, pipeline
from traceforge.core import SftRecord, TaskKind
from traceforge.tasks import TASKS
from traceforge.pipeline import (
    build_instances,
    build_record,
    build_records,
    count_markers,
    emit_instances,
    emit_sft,
    emit_shuffled,
    instance_from_json,
    instance_to_json,
    load_instances,
    load_records,
    record_from_json,
    record_to_json,
    split_by_correctness,
    stats,
    write_records,
    write_shuffled,
)

# --- serialization ------------------------------------------------------------


def sample_record():
    return SftRecord(
        instance_id=7,
        task=TaskKind.COUNTDOWN,
        prompt="Using the numbers ...",
        completion=wrap("1 + 2"),
        backtracks=3,
        seed=0xDEADBEEF12345678,
        correctness_label=None,
    )


def test_record_json_round_trip():
    rec = sample_record()
    line = record_to_json(rec)
    assert record_from_json(line) == rec
    obj = json.loads(line)
    assert obj["seed"] == "deadbeef12345678"  # seeds as fixed-width hex
    assert list(obj) == [
        "instance_id", "task", "prompt", "completion",
        "backtracks", "seed", "correctness_label",
    ]


def test_instance_json_round_trip():
    inst = countdown.build_instance(3, 999)
    line = instance_to_json(inst)
    back = instance_from_json(line)
    assert back == inst
    assert json.loads(line)["seed"] == f"{inst.seed:016x}"


def test_record_files_round_trip(tmp_path):
    records = [sample_record(), sample_record()]
    path = tmp_path / "r.jsonl"
    digest = write_records(records, path)
    assert load_records(path) == records
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert path.read_bytes().endswith(b"\n")


def test_read_jsonl_names_file_and_line_of_a_bad_line(tmp_path):
    path = tmp_path / "r.jsonl"
    write_records([sample_record()], path)
    good = path.read_text(encoding="utf-8")
    path.write_text(good + "\n" + good[:40] + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"r\.jsonl:3: JSONDecodeError: "):
        load_records(path)
    obj = json.loads(good)
    del obj["prompt"]
    path.write_text(good + json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"r\.jsonl:2: KeyError: 'prompt'"):
        load_records(path)


def test_load_instances_names_file_and_line_of_a_nan_list_truth(tmp_path):
    path = tmp_path / "i.jsonl"
    good = {"id": 0, "task": "list_functions", "prompt": "?",
            "ground_truth": [1, 2], "seed": "0" * 16}
    path.write_text(json.dumps(good) + "\n"
                    + json.dumps({**good, "ground_truth": [float("nan"), 2]})
                    + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"i\.jsonl:2: ValueError: "
                                         r"list_functions instance 0 has a "
                                         r"ground truth that is neither a "
                                         r"string nor a list of numbers: "
                                         r"\[nan, 2\]"):
        load_instances(path)


@pytest.mark.parametrize("task,truth,problem", [
    ("list_functions", [True, 2], "neither a string nor a list of numbers"),
    ("list_functions", {"values": [1]},
     "neither a string nor a list of numbers"),
    ("zebra", [1, 2], "not a string"),
])
def test_instance_from_json_says_what_a_ground_truth_may_be(task, truth,
                                                            problem):
    line = json.dumps({"id": 3, "task": task, "prompt": "?",
                       "ground_truth": truth, "seed": "0" * 16})
    with pytest.raises(ValueError, match=f"^{task} instance 3 has a ground "
                                         f"truth that is {problem}: "):
        instance_from_json(line)


def test_read_jsonl_names_file_and_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "r.jsonl"
    write_records([sample_record()], path)
    good = path.read_bytes()
    path.write_bytes(good + good.replace(b'"prompt"', b'"\xffprompt"'))
    with pytest.raises(ValueError, match=r"r\.jsonl:2: UnicodeDecodeError: "):
        load_records(path)
    # lines split on \n only, and a CRLF line still parses
    path.write_bytes(good.replace(b"\n", b"\r\n") * 2)
    assert load_records(path) == [sample_record()] * 2


def test_failed_replace_leaves_earlier_files_and_no_temporaries(tmp_path,
                                                                monkeypatch):
    out = tmp_path / "countdown_k1.jsonl"
    emit_sft(TaskKind.COUNTDOWN, 4, 1, 3, out)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["countdown_k1.jsonl",
                              "countdown_k1.jsonl.manifest.json"]

    def fail(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(pipeline.os, "replace", fail)
    with pytest.raises(OSError, match="disk gone"):
        emit_sft(TaskKind.COUNTDOWN, 4, 1, 4, out)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_manifest_is_written_after_its_data_file(tmp_path, monkeypatch):
    replaced = []
    real = pipeline.os.replace

    def spy(src, dst):
        replaced.append(os.path.basename(dst))
        real(src, dst)

    monkeypatch.setattr(pipeline.os, "replace", spy)
    emit_instances(TaskKind.ARC1D, 2, 0, tmp_path / "arc1d_instances.jsonl")
    assert replaced == ["arc1d_instances.jsonl",
                        "arc1d_instances.jsonl.manifest.json"]


# --- builders -----------------------------------------------------------------


def test_task_table_has_one_entry_per_kind():
    assert list(TASKS) == list(TaskKind)
    assert all(spec.kind == kind for kind, spec in TASKS.items())


def test_build_instances_ids_and_seeds():
    instances = build_instances(TaskKind.COUNTDOWN, 5, 42)
    assert [inst.id for inst in instances] == [0, 1, 2, 3, 4]
    assert len({inst.seed for inst in instances}) == 5
    again = build_instances(TaskKind.COUNTDOWN, 5, 42)
    assert again == instances


def test_build_instances_rejects_verifier_only_tasks():
    with pytest.raises(ValueError):
        build_instances(TaskKind.ZEBRA, 3, 42)
    with pytest.raises(ValueError):
        build_instances(TaskKind.LIST_FUNCTIONS, 3, 42)
    with pytest.raises(ValueError):
        build_instances(TaskKind.COUNTDOWN, 0, 42)


def test_build_record_is_deterministic_and_verified():
    rec = build_record(TaskKind.COUNTDOWN, 4, 42, 2)
    assert rec == build_record(TaskKind.COUNTDOWN, 4, 42, 2)
    assert rec.backtracks == 2
    assert count_markers(rec.completion) == 2


def test_build_record_rejects_untraced_tasks():
    with pytest.raises(ValueError):
        build_record(TaskKind.GEOMETRY_ANGLE, 0, 42, 1)


@pytest.mark.parametrize("count", [24, 23])  # 23 leaves a short last chunk
@pytest.mark.parametrize("task", [TaskKind.COUNTDOWN, TaskKind.SUDOKU,
                                  TaskKind.ARC1D])
def test_build_records_worker_count_does_not_change_output(task, count):
    serial = build_records(task, count, 2025, 1, workers=1)
    parallel = build_records(task, count, 2025, 1, workers=3)
    assert serial == parallel
    ids = [json.loads(line)["instance_id"] for line in parallel]
    assert ids == list(range(count))


def test_reused_pool_leaks_no_state_between_files():
    # one pool serves all four builds, so a worker that built a sudoku or an
    # arc1d k=10 file goes on to build the next one
    for task, count, k in ((TaskKind.COUNTDOWN, 30, 1), (TaskKind.SUDOKU, 9, 5),
                           (TaskKind.ARC1D, 30, 10), (TaskKind.ARC1D, 30, 0)):
        assert build_records(task, count, 77, k, workers=3) == \
            build_records(task, count, 77, k, workers=1)


@pytest.mark.parametrize("task", [t for t in TaskKind
                                  if TASKS[t].build_instance])
def test_instance_files_do_not_depend_on_worker_count(tmp_path, task):
    one, three = tmp_path / "one.jsonl", tmp_path / "three.jsonl"
    emit_instances(task, 13, 2025, one, workers=1)
    emit_instances(task, 13, 2025, three, workers=3)
    assert one.read_bytes() == three.read_bytes()


# Run in a fresh interpreter, so no pool of the test process plays a part.
# Prints the worker pids after each step and whether each build matched the
# serial bytes. A SIGKILL lands asynchronously, and the pool reads finished
# results before it looks for dead workers, so the two workers left can
# finish a whole build before the pool sees the break: the script builds
# until one raises, for at most a minute.
POOL_LIFECYCLE = """
import json, multiprocessing, os, signal, time
from concurrent.futures.process import BrokenProcessPool
from traceforge.core import TaskKind
from traceforge.pipeline import build_records

def build(workers):
    return build_records(TaskKind.COUNTDOWN, 12, 5, 1, workers) == serial

def pids():
    return sorted(p.pid for p in multiprocessing.active_children())

serial = build_records(TaskKind.COUNTDOWN, 12, 5, 1)
out = {"matched": [build(2)], "pids": [pids()]}
out["matched"].append(build(2))
out["pids"].append(pids())
out["matched"].append(build(3))
out["pids"].append(pids())
os.kill(out["pids"][-1][0], signal.SIGKILL)
out["before_break"] = []
deadline = time.monotonic() + 60
while time.monotonic() < deadline:
    try:
        out["before_break"].append(build(3))
    except BrokenProcessPool:
        out["raised"] = True
        break
out["matched"].append(build(3))
out["pids"].append(pids())
print(json.dumps(out))
"""


def test_pool_lifecycle():
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", POOL_LIFECYCLE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, (done.stdout, done.stderr)
    out = json.loads(done.stdout)
    first, reused, replaced, fresh = out["pids"]
    assert out["matched"] == [True] * 4
    assert all(out["before_break"])
    assert len(first) == 2 and reused == first   # the same pool, reused
    assert len(replaced) == 3 and not set(replaced) & set(first)
    assert out.get("raised")                     # a killed worker breaks it
    assert len(fresh) == 3 and not set(fresh) & set(replaced)
    for pid in first + replaced + fresh:         # all joined at exit
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# Run in a fresh interpreter, so only this script decides what is imported.
# Prints, as its last line, the pool modules loaded at start, after the
# serial paths and after a pooled build, and whether that build matched;
# the pool, started after its modules loaded, must still be freed cleanly.
POOL_IMPORTS = """
import sys
POOL = ("concurrent.futures", "multiprocessing")

def loaded():
    return [m for m in POOL if m in sys.modules]

out = {"start": loaded()}
import json, os, tempfile
import traceforge
from traceforge import (core, search, countdown, sudoku, arc1d, xtasks,
                        reward, pipeline, cli)
from traceforge.core import TaskKind

with tempfile.TemporaryDirectory() as tmp:
    pipeline.emit_sft(TaskKind.COUNTDOWN, 4, 1, 5, os.path.join(tmp, "a.jsonl"))
    code = cli.main(["trace", "--task", "countdown", "--backtracks", "1",
                     "--count", "4", "--seed", "5", "--out", tmp,
                     "--workers", "1"])
    assert code == 0
inst = pipeline.build_instances(TaskKind.COUNTDOWN, 1, 5)[0]
reward.score(inst, "<answer>" + inst.ground_truth + "</answer>")
out["serial"] = loaded()
serial = pipeline.build_records(TaskKind.COUNTDOWN, 8, 5, 1)
out["matched"] = pipeline.build_records(TaskKind.COUNTDOWN, 8, 5, 1,
                                        workers=2) == serial
out["pooled"] = loaded()
print(json.dumps(out))
sys.modules_kept = dict(sys.modules)  # every module lives to final teardown
"""


def test_serial_paths_import_no_pool_machinery():
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", POOL_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["serial"] == out["start"]
    assert out["matched"]
    assert out["pooled"] == ["concurrent.futures", "multiprocessing"]
    assert "Exception ignored" not in done.stderr


def test_build_records_validates_arguments():
    with pytest.raises(ValueError):
        build_records(TaskKind.COUNTDOWN, 0, 1, 1)
    with pytest.raises(ValueError):
        build_records(TaskKind.COUNTDOWN, 5, 1, -1)
    with pytest.raises(ValueError):
        build_records(TaskKind.COLOR_CUBE, 5, 1, 1)


# --- emit + manifest ----------------------------------------------------------


def test_emit_sft_writes_data_and_manifest(tmp_path):
    out = tmp_path / "countdown_k1.jsonl"
    manifest = emit_sft(TaskKind.COUNTDOWN, 6, 1, 77, out)
    assert manifest.sha256 == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest.count == 6
    assert manifest.backtracks == 1
    side = json.loads((tmp_path / "countdown_k1.jsonl.manifest.json").read_text())
    assert side["task"] == "countdown"
    assert side["master_seed"] == f"{77:016x}"
    assert side["sha256"] == manifest.sha256
    assert side["schema_version"] == pipeline.SCHEMA_VERSION
    assert side["prompt_template"] == countdown.PROMPT_TEMPLATE
    records = load_records(out)
    assert len(records) == 6
    assert all(r.backtracks == 1 for r in records)


def test_emit_sft_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    ma = emit_sft(TaskKind.ARC1D, 8, 2, 123, a)
    mb = emit_sft(TaskKind.ARC1D, 8, 2, 123, b)
    assert a.read_bytes() == b.read_bytes()
    assert ma.sha256 == mb.sha256


def test_emit_instances_manifest(tmp_path):
    out = tmp_path / "arc1d_instances.jsonl"
    manifest = emit_instances(TaskKind.ARC1D, 4, 55, out)
    assert manifest.backtracks is None
    assert manifest.sha256 == hashlib.sha256(out.read_bytes()).hexdigest()
    assert len(load_instances(out)) == 4


# --- completion shuffling -----------------------------------------------------


def test_emit_shuffled_is_a_derangement():
    lines = build_records(TaskKind.COUNTDOWN, 40, 7, 1)
    records = [record_from_json(line) for line in lines]
    shuffled = emit_shuffled(records, random.Random(0))
    assert len(shuffled) == len(records)
    for before, after in zip(records, shuffled):
        assert after.instance_id == before.instance_id
        assert after.prompt == before.prompt
        assert after.seed == before.seed
        assert after.completion != before.completion
        assert after.correctness_label is None
    # the same completions, just moved
    assert sorted(r.completion for r in shuffled) == \
        sorted(r.completion for r in records)


def test_emit_shuffled_backtracks_travel_with_completion():
    mixed = [build_record(TaskKind.COUNTDOWN, i, 7, k)
             for i, k in enumerate([0, 1, 2, 3, 5])]
    shuffled = emit_shuffled(mixed, random.Random(1))
    for rec in shuffled:
        assert rec.backtracks == count_markers(rec.completion)


def test_emit_shuffled_needs_two_records():
    with pytest.raises(ValueError):
        emit_shuffled([sample_record()], random.Random(0))


def test_emit_shuffled_is_seed_deterministic():
    lines = build_records(TaskKind.COUNTDOWN, 12, 7, 1)
    records = [record_from_json(line) for line in lines]
    one = emit_shuffled(records, random.Random(5))
    two = emit_shuffled(records, random.Random(5))
    assert one == two


def test_write_shuffled_names_a_file_of_two_tasks_mixed(tmp_path):
    records = [build_record(task, i, 7, 1) for task in
               (TaskKind.COUNTDOWN, TaskKind.SUDOKU) for i in range(3)]
    src, out = tmp_path / "both.jsonl", tmp_path / "both_shuffled.jsonl"
    write_records(records, src)
    manifest = write_shuffled(src, out, 3)
    assert manifest.task == "mixed"
    assert json.loads((tmp_path / "both_shuffled.jsonl.manifest.json")
                      .read_text())["task"] == "mixed"
    shuffled = load_records(out)
    assert [(r.task, r.prompt) for r in shuffled] == \
        [(r.task, r.prompt) for r in records]
    assert {r.task for r in shuffled} == {TaskKind.COUNTDOWN, TaskKind.SUDOKU}
    assert all(a.completion != b.completion
               for a, b in zip(shuffled, records))


# --- correctness splits -------------------------------------------------------


def test_split_by_correctness_buckets():
    instances = build_instances(TaskKind.COUNTDOWN, 3, 11)
    completions = [
        {"instance_id": 0, "completion": wrap(instances[0].ground_truth)},
        {"instance_id": 1, "completion": wrap("1 + 2")},
        {"instance_id": 2, "completion": "no tags at all"},
    ]
    buckets = split_by_correctness(instances, completions)
    assert set(buckets) == {"correct", "incorrect", "incorrect_format"}
    assert [r.instance_id for r in buckets["correct"]] == [0]
    assert [r.instance_id for r in buckets["incorrect"]] == [1]
    assert [r.instance_id for r in buckets["incorrect_format"]] == [2]
    assert buckets["correct"][0].correctness_label == "correct"


def test_split_by_correctness_empty_buckets_present():
    instances = build_instances(TaskKind.COUNTDOWN, 1, 11)
    buckets = split_by_correctness(instances, [])
    assert buckets == {"correct": [], "incorrect": [], "incorrect_format": []}


def test_split_by_correctness_unknown_id_raises():
    instances = build_instances(TaskKind.COUNTDOWN, 1, 11)
    with pytest.raises(ValueError):
        split_by_correctness(instances, [{"instance_id": 9, "completion": "x"}])


# --- stats --------------------------------------------------------------------


def test_count_markers():
    rec = build_record(TaskKind.COUNTDOWN, 0, 7, 3)
    assert count_markers(rec.completion) == 3
    assert count_markers("plain text") == 0


def test_stats_summary():
    records = [build_record(TaskKind.COUNTDOWN, i, 7, k)
               for i, k in enumerate([0, 0, 1])]
    records.append(build_record(TaskKind.ARC1D, 3, 7, 1))
    got = stats(records)
    assert got["records"] == 4
    assert got["backtracks"] == {"0": 2, "1": 2}
    assert got["per_task"] == {"arc1d": 1, "countdown": 3}
    chars = got["completion_chars"]
    assert chars["min"] <= chars["mean"] <= chars["max"]
    with pytest.raises(ValueError):
        stats([])
