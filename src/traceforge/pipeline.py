"""Dataset assembly: instance files, traced SFT datasets, shuffled
variants, correctness splits, and corpus statistics.

Files are JSON lines, UTF-8, one object per line, every line newline
terminated, with a fixed field order, so byte-identical reruns are the
norm rather than an accident. Each dataset file gets a sibling
``<name>.manifest.json`` recording what produced it and the SHA-256 of its
bytes. Record building is embarrassingly parallel: every record depends
only on (master seed, instance id), so worker count cannot change output.
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .core import (
    ProblemInstance,
    SftRecord,
    TaskKind,
    derive_seed,
    render_sft_record,
)
from .reward import score
from .search import MARKER_PHRASE
from .tasks import TASKS

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DatasetManifest:
    """Provenance for one emitted file; enough to regenerate it exactly."""

    schema_version: int
    task: str
    count: int
    backtracks: Optional[int]
    master_seed: int
    sha256: str
    prompt_template: Optional[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "task": self.task,
                "count": self.count,
                "backtracks": self.backtracks,
                "master_seed": f"{self.master_seed:016x}",
                "sha256": self.sha256,
                "prompt_template": self.prompt_template,
            },
            ensure_ascii=False,
            indent=2,
        ) + "\n"


def manifest_path_for(data_path) -> str:
    return f"{data_path}.manifest.json"


def write_lines(path, lines) -> str:
    """Write newline-terminated lines as UTF-8, returning the SHA-256."""
    blob = "".join(line + "\n" for line in lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def _write_dataset(out_path, lines, task: str, backtracks: Optional[int],
                   master_seed: int,
                   prompt_template: Optional[str]) -> DatasetManifest:
    """Write a data file and its sibling manifest; returns the manifest."""
    manifest = DatasetManifest(
        schema_version=SCHEMA_VERSION,
        task=task,
        count=len(lines),
        backtracks=backtracks,
        master_seed=master_seed,
        sha256=write_lines(out_path, lines),
        prompt_template=prompt_template,
    )
    with open(manifest_path_for(out_path), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())
    return manifest


# --- record serialization ----------------------------------------------------

def record_to_json(rec: SftRecord) -> str:
    return json.dumps(
        {
            "instance_id": rec.instance_id,
            "task": rec.task.value,
            "prompt": rec.prompt,
            "completion": rec.completion,
            "backtracks": rec.backtracks,
            "seed": f"{rec.seed:016x}",
            "correctness_label": rec.correctness_label,
        },
        ensure_ascii=False,
    )


def record_from_json(line: str) -> SftRecord:
    obj = json.loads(line)
    return SftRecord(
        instance_id=int(obj["instance_id"]),
        task=TaskKind(obj["task"]),
        prompt=obj["prompt"],
        completion=obj["completion"],
        backtracks=int(obj["backtracks"]),
        seed=int(obj["seed"], 16),
        correctness_label=obj.get("correctness_label"),
    )


def load_records(path) -> list:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(record_from_json(line))
    return records


def write_records(records, path) -> str:
    return write_lines(path, [record_to_json(r) for r in records])


def instance_to_json(instance: ProblemInstance) -> str:
    return json.dumps(
        {
            "id": instance.id,
            "task": instance.task.value,
            "prompt": instance.prompt,
            "ground_truth": instance.ground_truth,
            "seed": f"{instance.seed:016x}",
            "meta": instance.meta,
        },
        ensure_ascii=False,
    )


def instance_from_json(line: str) -> ProblemInstance:
    """One instance line. The ground truth must be a string, except that a
    list_functions truth may also be a JSON list of numbers."""
    obj = json.loads(line)
    instance = ProblemInstance(
        id=int(obj["id"]),
        task=TaskKind(obj["task"]),
        prompt=obj["prompt"],
        ground_truth=obj["ground_truth"],
        seed=int(obj["seed"], 16),
        meta=obj.get("meta", {}),
    )
    truth = instance.ground_truth
    number_list = (instance.task == TaskKind.LIST_FUNCTIONS
                   and isinstance(truth, list)
                   and all(type(v) in (int, float) for v in truth))
    if not (isinstance(truth, str) or number_list):
        raise ValueError(f"{instance.task.value} instance {instance.id} has a "
                         f"ground truth that is not a string: {truth!r}")
    return instance


def load_instances(path) -> list:
    instances = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                instances.append(instance_from_json(line))
    return instances


# --- building ----------------------------------------------------------------

def build_instances(task: TaskKind, count: int, master_seed: int) -> list:
    """Instances for any generator-backed task, ids 0..count-1."""
    builder = TASKS[task].build_instance
    if builder is None:
        raise ValueError(f"task {task.value} has no generator (verifier only)")
    if count < 1:
        raise ValueError("count must be positive")
    return [builder(i, derive_seed(master_seed, i)) for i in range(count)]


def build_record(task: TaskKind, instance_id: int, master_seed: int,
                 k: int) -> SftRecord:
    """One traced SFT record, fully determined by (master seed, id, k)."""
    builder = TASKS[task].build_traced
    if builder is None:
        raise ValueError(f"task {task.value} does not support traces")
    seed = derive_seed(master_seed, instance_id)
    instance, trace = builder(instance_id, seed, k)
    return render_sft_record(instance, trace)


def _record_chunk(task_value, ids, master_seed, k):
    task = TaskKind(task_value)
    return [(i, record_to_json(build_record(task, i, master_seed, k)))
            for i in ids]


def build_records(task: TaskKind, count: int, master_seed: int, k: int,
                  workers: int = 1) -> list:
    """JSON lines for ``count`` records, id order, any worker count."""
    if TASKS[task].build_traced is None:
        raise ValueError(f"task {task.value} does not support traces")
    if count < 1:
        raise ValueError("count must be positive")
    if k < 0:
        raise ValueError("backtrack count must be >= 0")
    if workers <= 1:
        return [record_to_json(build_record(task, i, master_seed, k))
                for i in range(count)]
    chunk = max(1, -(-count // (workers * 4)))
    pieces = [list(range(lo, min(lo + chunk, count)))
              for lo in range(0, count, chunk)]
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_record_chunk, task.value, ids, master_seed, k)
                   for ids in pieces]
        for fut in futures:
            results.extend(fut.result())
    results.sort(key=lambda pair: pair[0])
    return [line for _, line in results]


def emit_sft(task: TaskKind, count: int, k: int, master_seed: int, out_path,
             workers: int = 1) -> DatasetManifest:
    """Write a traced dataset plus its manifest; returns the manifest."""
    lines = build_records(task, count, master_seed, k, workers)
    return _write_dataset(out_path, lines, task.value, k, master_seed,
                          TASKS[task].prompt_template)


def emit_instances(task: TaskKind, count: int, master_seed: int,
                   out_path) -> DatasetManifest:
    """Write an instance file plus its manifest; returns the manifest."""
    lines = [instance_to_json(i)
             for i in build_instances(task, count, master_seed)]
    return _write_dataset(out_path, lines, task.value, None, master_seed,
                          TASKS[task].prompt_template)


# --- shuffling ---------------------------------------------------------------

def emit_shuffled(records, rng) -> list:
    """Reassign completions so no record keeps its own.

    Uses a single random n-cycle (Sattolo's algorithm), which is a
    derangement by construction. The ``backtracks`` count travels with the
    completion it describes; stale correctness labels are cleared.
    """
    n = len(records)
    if n < 2:
        raise ValueError("need at least two records to shuffle completions")
    source = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i)
        source[i], source[j] = source[j], source[i]
    out = []
    for m, rec in enumerate(records):
        donor = records[source[m]]
        out.append(SftRecord(
            instance_id=rec.instance_id,
            task=rec.task,
            prompt=rec.prompt,
            completion=donor.completion,
            backtracks=donor.backtracks,
            seed=rec.seed,
            correctness_label=None,
        ))
    return out


def write_shuffled(in_path, out_path, seed: int) -> DatasetManifest:
    """Write the records of ``in_path`` with deranged completions (see
    :func:`emit_shuffled`) plus a manifest. The manifest's task is the
    records' single task, or "mixed"."""
    shuffled = emit_shuffled(load_records(in_path), random.Random(seed))
    tasks = {r.task.value for r in shuffled}
    return _write_dataset(out_path, [record_to_json(r) for r in shuffled],
                          tasks.pop() if len(tasks) == 1 else "mixed",
                          None, seed, None)


# --- scoring-driven splits ---------------------------------------------------

def count_markers(completion: str) -> int:
    return completion.count(MARKER_PHRASE)


def split_by_correctness(instances, completions) -> dict:
    """Bucket completions by reward category.

    ``instances`` is a list of ProblemInstance; ``completions`` a list of
    {"instance_id", "completion"} mappings. Every bucket key is always
    present, possibly empty. Unknown instance ids raise ValueError.
    """
    by_id = {inst.id: inst for inst in instances}
    buckets = {"correct": [], "incorrect": [], "incorrect_format": []}
    for item in completions:
        iid = int(item["instance_id"])
        inst = by_id.get(iid)
        if inst is None:
            raise ValueError(f"completion references unknown instance {iid}")
        completion = item["completion"]
        breakdown = score(inst, completion)
        buckets[breakdown.category].append(SftRecord(
            instance_id=inst.id,
            task=inst.task,
            prompt=inst.prompt,
            completion=completion,
            backtracks=count_markers(completion),
            seed=inst.seed,
            correctness_label=breakdown.category,
        ))
    return buckets


# --- statistics --------------------------------------------------------------

def stats(records) -> dict:
    """Corpus summary: length distributions, backtracks, task mix."""
    if not records:
        raise ValueError("no records to summarize")
    chars = [len(r.completion) for r in records]
    tokens = [len(r.completion.split()) for r in records]
    histogram: dict = {}
    per_task: dict = {}
    for r in records:
        histogram[r.backtracks] = histogram.get(r.backtracks, 0) + 1
        per_task[r.task.value] = per_task.get(r.task.value, 0) + 1

    def summary(values):
        return {
            "min": min(values),
            "max": max(values),
            "mean": round(sum(values) / len(values), 2),
        }

    return {
        "records": len(records),
        "completion_chars": summary(chars),
        "completion_tokens": summary(tokens),
        "backtracks": {str(key): histogram[key] for key in sorted(histogram)},
        "per_task": {key: per_task[key] for key in sorted(per_task)},
    }
