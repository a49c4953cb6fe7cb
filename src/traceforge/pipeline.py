"""Dataset assembly: instance files, traced SFT datasets, shuffled
variants, correctness splits, and corpus statistics.

Files are JSON lines, UTF-8, one object per line, every line newline
terminated, with a fixed field order, so byte-identical reruns are the
norm rather than an accident. Each dataset file gets a sibling
``<name>.manifest.json`` recording what produced it and the SHA-256 of its
bytes. Record building is embarrassingly parallel: every record depends
only on (master seed, instance id), so worker count cannot change output.
One worker starts no pool and imports no pool machinery. Above 1 worker, a
process imports ``concurrent.futures`` and starts one pool on first use,
every later file (every file of ``forge build --workers N``) reuses it, and
exit joins it.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import re
from functools import partial
from typing import NamedTuple, Optional

from .core import (
    MARKER_PHRASE,
    ProblemInstance,
    Rng,
    SftRecord,
    TaskKind,
    derive_seed,
    render_sft_record,
)
from .reward import CATEGORIES, pair_completions, score
from .tasks import TASKS
from .xtasks import read_list

# 2: a countdown path is the combination its generator drew, and a
# countdown detour starts from a distinct multiset
SCHEMA_VERSION = 2

# backtrack depths of the paper's traced files (see :func:`emit_layout`)
LAYOUT_DEPTHS = (0, 1, 5, 10)


class DatasetManifest(NamedTuple):
    """The schema, task, count, backtracks, seed and SHA-256 of one
    emitted file. They regenerate an instances or traced file; a shuffled
    file's manifest omits its source and the source's k (ROADMAP item 7)."""

    schema_version: int
    task: str
    count: int
    backtracks: Optional[int]
    master_seed: int
    sha256: str
    prompt_template: Optional[str]

    def to_json(self) -> str:
        return json.dumps(
            {**self._asdict(), "master_seed": f"{self.master_seed:016x}"},
            ensure_ascii=False, indent=2) + "\n"


def manifest_path_for(data_path) -> str:
    return f"{data_path}.manifest.json"


def instances_path(out, task: TaskKind) -> str:
    return os.path.join(out, f"{task.value}_instances.jsonl")


def traced_path(out, task: TaskKind, k: int) -> str:
    return os.path.join(out, f"{task.value}_k{k}.jsonl")


def write_lines(path, lines) -> str:
    """Write newline-terminated lines as UTF-8, returning the SHA-256; a
    temporary file beside ``path`` replaces it once complete. A missing
    parent directory is created."""
    blob = "".join(line + "\n" for line in lines).encode("utf-8")
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return hashlib.sha256(blob).hexdigest()


def read_jsonl(path, parse) -> list:
    """``parse`` of each non-blank line of a JSON-lines file. A line that is
    not JSON, lacks a field or holds a bad value raises ValueError naming
    the file and the line."""
    items = []
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    items.append(parse(line))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{n}: {type(exc).__name__}: {exc}") from exc
    return items


def _write_dataset(out_path, lines, task: str, backtracks: Optional[int],
                   master_seed: int,
                   prompt_template: Optional[str]) -> DatasetManifest:
    """Write a data file, then its sibling manifest; returns the manifest."""
    manifest = DatasetManifest(
        schema_version=SCHEMA_VERSION,
        task=task,
        count=len(lines),
        backtracks=backtracks,
        master_seed=master_seed,
        sha256=write_lines(out_path, lines),
        prompt_template=prompt_template,
    )
    write_lines(manifest_path_for(out_path), [manifest.to_json().rstrip()])
    return manifest


# --- record serialization ----------------------------------------------------

_SEED = re.compile(r"[0-9a-f]{16}")


def _read_seed(value) -> int:
    """A ``seed`` as written: 16 lowercase hex digits, else ValueError."""
    if type(value) is not str or not _SEED.fullmatch(value):
        raise ValueError(
            f"seed must be 16 lowercase hex digits, got {value!r}")
    return int(value, 16)


def record_to_json(rec: SftRecord) -> str:
    # a TaskKind is a str, so it serializes as its value
    return json.dumps({**rec._asdict(), "seed": f"{rec.seed:016x}"},
                      ensure_ascii=False)


def record_from_json(line: str) -> SftRecord:
    """One record line. ``instance_id`` and ``backtracks`` must be JSON
    integers, ``prompt`` and ``completion`` strings, and
    ``correctness_label`` null or a reward category, and ``seed`` 16
    lowercase hex digits; anything else raises ValueError."""
    obj = json.loads(line)
    for name in ("instance_id", "backtracks"):
        if type(obj[name]) is not int:
            raise ValueError(
                f"{name} must be a JSON integer, got {obj[name]!r}")
    for name in ("prompt", "completion"):
        if type(obj[name]) is not str:
            raise ValueError(f"{name} must be a string, got {obj[name]!r}")
    label = obj.get("correctness_label")
    if label is not None and label not in CATEGORIES:
        raise ValueError(f"correctness_label must be null or one of "
                         f"{', '.join(CATEGORIES)}, got {label!r}")
    return SftRecord(
        instance_id=obj["instance_id"],
        task=TaskKind(obj["task"]),
        prompt=obj["prompt"],
        completion=obj["completion"],
        backtracks=obj["backtracks"],
        seed=_read_seed(obj["seed"]),
        correctness_label=label,
    )


def load_records(path) -> list:
    return read_jsonl(path, record_from_json)


def write_records(records, path) -> str:
    return write_lines(path, [record_to_json(r) for r in records])


def instance_to_json(instance: ProblemInstance) -> str:
    return json.dumps({**instance._asdict(), "seed": f"{instance.seed:016x}"},
                      ensure_ascii=False)


def instance_from_json(line: str) -> ProblemInstance:
    """One instance line: a JSON integer id, a string prompt, a seed of 16
    lowercase hex digits, an object meta (default {}), and a string ground
    truth, or for list_functions a list that :func:`read_list` reads."""
    obj = json.loads(line)
    if type(obj["id"]) is not int:
        raise ValueError(f"id must be a JSON integer, got {obj['id']!r}")
    if type(obj["prompt"]) is not str:
        raise ValueError(f"prompt must be a string, got {obj['prompt']!r}")
    meta = obj.get("meta", {})
    if type(meta) is not dict:
        raise ValueError(f"meta must be a JSON object, got {meta!r}")
    instance = ProblemInstance(
        id=obj["id"],
        task=TaskKind(obj["task"]),
        prompt=obj["prompt"],
        ground_truth=obj["ground_truth"],
        seed=_read_seed(obj["seed"]),
        meta=meta,
    )
    truth = instance.ground_truth
    listed = instance.task == TaskKind.LIST_FUNCTIONS
    if not (isinstance(truth, str) or listed and isinstance(truth, list)
            and read_list(truth) is not None):
        problem = "neither a string nor a list of numbers" if listed \
            else "not a string"
        raise ValueError(f"{instance.task.value} instance {instance.id} has a "
                         f"ground truth that is {problem}: {truth!r}")
    return instance


def load_instances(path) -> list:
    return read_jsonl(path, instance_from_json)


# --- building ----------------------------------------------------------------

def _instance(task_value, master_seed, instance_id):
    """One instance; module level, so a pool can pickle it."""
    return TASKS[TaskKind(task_value)].build_instance(
        instance_id, derive_seed(master_seed, instance_id))


def build_instances(task: TaskKind, count: int, master_seed: int,
                    workers: int = 1) -> list:
    """Instances for any generator task, ids 0..count-1, any worker count."""
    if TASKS[task].build_instance is None:
        raise ValueError(f"task {task.value} has no generator (verifier only)")
    if count < 1:
        raise ValueError("count must be positive")
    return _map_ids(partial(_instance, task.value, master_seed), count,
                    workers)


def build_record(task: TaskKind, instance_id: int, master_seed: int,
                 k: int) -> SftRecord:
    """One traced SFT record, fully determined by (master seed, id, k)."""
    builder = TASKS[task].build_traced
    if builder is None:
        raise ValueError(f"task {task.value} does not support traces")
    seed = derive_seed(master_seed, instance_id)
    instance, trace = builder(instance_id, seed, k)
    return render_sft_record(instance, trace)


def _record_line(task_value, master_seed, k, instance_id):
    """One record's JSON line; module level, so a pool can pickle it."""
    return record_to_json(build_record(TaskKind(task_value), instance_id,
                                       master_seed, k))


_pool = None  # (pid, workers, executor): this process's pool


@atexit.register
def _drop_pool():
    """Free the pool at exit: the pool modules load after this one, so
    module teardown would clear them before the pool's finalizer runs."""
    global _pool
    _pool = None


def _map_ids(fn, count: int, workers: int) -> list:
    """``fn(i)`` for ids 0..count-1 in id order; at 1 worker, in this
    process, with no pool and without importing ``concurrent.futures``;
    above 1, in this process's pool, whose machinery is imported on first
    use, before the pool forks. A new worker count or a forked child (its
    pid is not the creator's) replaces the pool, and a broken one is
    dropped as it raises. Workers run the package as it was when the pool
    forked, so a later monkeypatch does not reach them, and module caches
    (arc1d's ``_rule_analysis``) outlive a file."""
    global _pool
    if workers <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        if _pool is not None and _pool[0] == os.getpid():
            _pool[2].shutdown()
        _pool = (os.getpid(), workers, ProcessPoolExecutor(workers))
    try:
        # map returns results in input order, so they come back in id order
        return list(_pool[2].map(fn, range(count),
                                 chunksize=-(-count // (4 * workers))))
    except BrokenProcessPool:
        _pool[2].shutdown()
        _pool = None
        raise


def build_records(task: TaskKind, count: int, master_seed: int, k: int,
                  workers: int = 1) -> list:
    """JSON lines for ``count`` records, id order, any worker count."""
    if count < 1:
        raise ValueError("count must be positive")
    if k < 0:
        raise ValueError("backtrack count must be >= 0")
    return _map_ids(partial(_record_line, task.value, master_seed, k), count,
                    workers)


def emit_sft(task: TaskKind, count: int, k: int, master_seed: int, out_path,
             workers: int = 1) -> DatasetManifest:
    """Write a traced dataset plus its manifest; returns the manifest."""
    lines = build_records(task, count, master_seed, k, workers)
    return _write_dataset(out_path, lines, task.value, k, master_seed,
                          TASKS[task].prompt_template)


def emit_instances(task: TaskKind, count: int, master_seed: int, out_path,
                   workers: int = 1) -> DatasetManifest:
    """Write an instance file plus its manifest; returns the manifest."""
    lines = [instance_to_json(i)
             for i in build_instances(task, count, master_seed, workers)]
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
    return [rec._replace(completion=donor.completion,
                         backtracks=donor.backtracks, correctness_label=None)
            for rec, donor in zip(records, [records[m] for m in source])]


def write_shuffled(in_path, out_path, seed: int) -> DatasetManifest:
    """Write the records of ``in_path`` with deranged completions (see
    :func:`emit_shuffled`) plus a manifest. The manifest's task is the
    records' single task, or "mixed"."""
    shuffled = emit_shuffled(load_records(in_path), Rng(seed))
    tasks = {r.task.value for r in shuffled}
    return _write_dataset(out_path, [record_to_json(r) for r in shuffled],
                          tasks.pop() if len(tasks) == 1 else "mixed",
                          None, seed, None)


def emit_layout(out, count: int, master_seed: int, workers: int = 1):
    """Write the paper's dataset layout into directory ``out``, yielding
    ``(path, manifest, what)`` as each file lands: instances for every
    generator task by name, traced files for each traced task at every
    ``LAYOUT_DEPTHS`` depth, then countdown k=1 with shuffled completions.
    A ``count`` below 2 raises ValueError before anything is written."""
    if count < 2:
        raise ValueError("--count must be at least 2 to shuffle completions")
    for task in sorted(t for t in TASKS if TASKS[t].build_instance):
        path = instances_path(out, task)
        yield path, emit_instances(task, count, master_seed, path,
                                   workers), "instances"
    for task in (t for t in TASKS if TASKS[t].build_traced):
        for k in LAYOUT_DEPTHS:
            path = traced_path(out, task, k)
            yield path, emit_sft(task, count, k, master_seed, path,
                                 workers), "records"
    path = os.path.join(out, "countdown_k1_shuffled.jsonl")
    yield path, write_shuffled(traced_path(out, TaskKind.COUNTDOWN, 1), path,
                               master_seed), "shuffled records"


# --- scoring-driven splits ---------------------------------------------------

def count_markers(completion: str) -> int:
    return completion.count(MARKER_PHRASE)


def split_by_correctness(instances, completions) -> dict:
    """Bucket completions by reward category.

    ``instances`` is a list of ProblemInstance; ``completions`` a list of
    {"instance_id", "completion"} mappings. Every bucket key is always
    present, possibly empty. Unknown instance ids raise ValueError.
    """
    buckets = {name: [] for name in CATEGORIES}
    for inst, completion in pair_completions(instances, completions):
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
