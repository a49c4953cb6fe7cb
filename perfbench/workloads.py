"""The benchmark's three workloads and their correctness checks.

Every workload runs in rounds. Round ``r`` derives its inputs from the
benchmark seed and ``r`` alone, so a run is reproducible from ``--seed``,
and consecutive rounds cover fresh inputs, so a run averages over many
puzzles. A round is a sequence of timed units (one file written, or one
pass over the reward mix), each timed in host-normalized seconds (see
``hostclock.py``). Checks run after the round, outside the timed units.

- ``sft_serial``: ``pipeline.emit_sft`` over a depth sweep, one process.
- ``dataset_layout``: the ``scripts/build_datasets.py`` layout at reduced
  counts with a two-worker pool.
- ``reward_rollouts``: ``reward.score`` over a fixed, seeded mix of
  completions for all ten tasks.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from array import array
from dataclasses import dataclass, field
from decimal import Decimal


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class RoundResult:
    wall_s: float = 0.0        # host-normalized seconds of the timed units
    raw_s: float = 0.0         # the same units in measured seconds
    elapsed_s: float = 0.0     # measured seconds of the whole round
    ops: int = 0
    failed: int = 0
    task_ops: dict = field(default_factory=dict)   # traced task -> operations
    task_s: dict = field(default_factory=dict)     # traced task -> normalized s
    digests: dict = field(default_factory=dict)    # file name -> sha256
    counts: dict = field(default_factory=dict)     # workload-specific tallies
    latencies_ns: array = field(default_factory=lambda: array("q"))

    def add_task(self, task, ops, seconds):
        self.task_ops[task] = self.task_ops.get(task, 0) + ops
        self.task_s[task] = self.task_s.get(task, 0.0) + seconds


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


class _Workload:
    """Shared plumbing: the package modules, the seed and the work dir."""

    traced_tasks = ("countdown", "sudoku", "arc1d")
    workers = 1
    # rounds between set-ups; set-up ``b`` serves rounds from
    # ``b * setup_every + 1`` on (set-up 0 also serves the warm-up round)
    setup_every = 1

    def __init__(self, tf, seed, workdir, clock, tracer=None):
        self.tf = tf
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.tracer = tracer
        self.errors = []        # the first few raises, reported at the end

    def record_error(self, exc):
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}"[:300])

    def master(self, r):
        return self.tf.core.derive_seed(self.seed, r)

    def setup(self, block):
        """Set-up the program needs before a block of rounds."""

    def set_cell(self, cell):
        if self.tracer is not None:
            self.tracer.cell = cell

    def run_round(self, r):
        result = RoundResult()
        start = time.perf_counter()
        self._round(r, result)
        result.elapsed_s = time.perf_counter() - start
        return result

    def finish(self):
        """Untimed work after the last round; returns printed facts."""
        return {"errors": "; ".join(self.errors) or "none"}


# --- dataset files -----------------------------------------------------------

class _DatasetWorkload(_Workload):

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _emit(self, result, cell, name, entry, fn, *args, **kwargs):
        """Write one file as a timed unit; returns its normalized seconds,
        or None when the call raised (a failure, not an aborted run). A
        written file is checked after the round."""
        count = entry[2]
        result.ops += count
        self.set_cell(cell)
        start = time.perf_counter()
        try:
            fn(*args, **kwargs)
        except Exception as exc:  # reported with the results
            self.record_error(exc)
            raised = True
        else:
            raised = False
        raw = time.perf_counter() - start
        self.set_cell(None)
        seconds = raw * self.clock.factor()
        result.raw_s += raw
        result.wall_s += seconds
        if raised:
            result.failed += count
            return None
        self._emitted[name] = entry
        return seconds

    def _emit_sft(self, result, task, count, k, master):
        name = f"{task.value}_k{k}.jsonl"
        seconds = self._emit(result, f"{task.value}.k{k}", name,
                             ("sft", task, count, k, master),
                             self.tf.pipeline.emit_sft, task, count, k, master,
                             self._path(name), workers=self.workers)
        if seconds is not None:
            result.add_task(task.value, count, seconds)

    def _digest_files(self, result):
        for name in self._emitted:
            for fname in (name, name + ".manifest.json"):
                result.digests[fname] = sha256_file(self._path(fname))

    def check_round(self, r, result, full):
        for name, (kind, task, count, k, _) in self._emitted.items():
            self._check_file(name, kind, task, count, k)
        if full:
            self._check_sample(r)

    def _check_file(self, name, kind, task, count, k):
        """SHA-256 against the manifest, then every line's own promises.

        Reads line by line, so the checks add little to the peak memory
        the benchmark reports."""
        tf = self.tf
        path = self._path(name)
        with open(tf.pipeline.manifest_path_for(path), encoding="utf-8") as fh:
            manifest = json.load(fh)
        _require(manifest["count"] == count, f"{name}: manifest count")
        if kind == "sft":
            _require(manifest["backtracks"] == k, f"{name}: manifest backtracks")
        digest = hashlib.sha256()
        lines = 0
        with open(path, "rb") as fh:
            for i, raw in enumerate(fh):
                digest.update(raw)
                lines += 1
                try:
                    line = raw.decode("utf-8")
                    if kind == "instances":
                        inst = tf.pipeline.instance_from_json(line)
                    elif kind == "sft":
                        rec = tf.pipeline.record_from_json(line)
                except (ValueError, KeyError) as exc:
                    raise CheckFailed(f"{name}: line {i} does not parse: {exc}") from None
                if kind == "instances":
                    _require(inst.id == i and inst.task == task,
                             f"{name}: line {i} is instance {inst.id} of {inst.task}")
                elif kind == "sft":
                    self._check_record(name, i, rec, task, k)
        _require(digest.hexdigest() == manifest["sha256"],
                 f"{name}: bytes do not match the manifest sha256")
        _require(lines == count, f"{name}: {lines} lines, not {count}")

    def _check_record(self, name, i, rec, task, k):
        _require(rec.instance_id == i and rec.task == task,
                 f"{name}: line {i} is record {rec.instance_id} of {rec.task}")
        _require(rec.backtracks == k,
                 f"{name}: record {i} has {rec.backtracks} backtracks, not {k}")
        markers = self.tf.pipeline.count_markers(rec.completion)
        _require(markers == k,
                 f"{name}: record {i} has {markers} marker phrases, not {k}")

    def _check_sample(self, r):
        """Re-derive a few records per traced file through ``build_traced``:
        each must render to the same JSON line and score 1.0."""
        tf = self.tf
        rng = random.Random(self.master(r))
        for name, (kind, task, count, k, master) in self._emitted.items():
            if kind != "sft":
                continue
            picked = sorted(rng.sample(range(count), min(2, count)))
            with open(self._path(name), encoding="utf-8") as fh:
                lines = {i: line.rstrip("\n") for i, line in enumerate(fh)
                         if i in picked}
            module = getattr(tf, task.value)
            for i in picked:
                inst, trace = module.build_traced(
                    i, tf.core.derive_seed(master, i), k)
                rec = tf.core.render_sft_record(inst, trace)
                _require(tf.pipeline.record_to_json(rec) == lines[i],
                         f"{name}: record {i} differs from a fresh build_traced")
                got = tf.reward.score(inst, rec.completion)
                _require(got.total == 1.0 and got.category == "correct",
                         f"{name}: record {i} scores {got.total} ({got.category})")


class SftSerial(_DatasetWorkload):
    """Traced SFT files over a depth sweep, ``workers=1``.

    Counts give each task a comparable share of a round (on a 2-core x86
    host at the baseline commit: countdown 0.4 s, arc1d 0.4 s, sudoku 0.85 s,
    the most because its cost per record is long-tailed). k=0 is in the
    sweep so work spent on detour machinery that k=0 does not need can show.
    """

    name = "sft_serial"
    cells = (("countdown", (0, 1, 10), 200),
             ("sudoku", (0, 5, 10), 45),
             ("arc1d", (0, 5, 10), 400))

    def _round(self, r, result):
        core = self.tf.core
        self._emitted = {}
        cell = 0
        for task_value, depths, count in self.cells:
            for k in depths:
                # each file gets its own master seed, so the depths of a
                # round hold different puzzles and a round averages more
                # of sudoku's long-tailed generation cost
                cell += 1
                self._emit_sft(result, core.TaskKind(task_value), count, k,
                               core.derive_seed(self.master(r), cell))
        self._digest_files(result)


class DatasetLayout(_DatasetWorkload):
    """The ``scripts/build_datasets.py`` layout at reduced counts.

    Instance files for every generator task, traced files for the three
    traced tasks at k in {0, 1, 5, 10}, and the shuffled countdown k=1
    variant, each with its manifest. Traced files go through the process
    pool with two workers; instance files are written serially, as
    ``emit_instances`` has no pool.
    """

    name = "dataset_layout"
    workers = 2
    instances = 40
    # per traced file; sized, unlike the script's single count, so each task
    # gets a comparable share of the pool's time and the pool's start-up
    # does not dominate the fast tasks' files
    records = {"countdown": 150, "sudoku": 60, "arc1d": 300}
    depths = (0, 1, 5, 10)
    generator_tasks = ("color_cube", "countdown", "arc1d", "geometry_angle",
                       "geometry_incircle", "geometry_orthocenter",
                       "self_reference", "sudoku")
    # the cell rebuilt with one worker and compared byte for byte; sudoku's
    # seed-dependent cost is what makes pool chunks straggle
    serial_cell = ("sudoku", 5)

    def _round(self, r, result):
        tf = self.tf
        TaskKind = tf.core.TaskKind
        master = self.master(r)
        self._emitted = {}
        inst_s = 0.0
        for task_value in self.generator_tasks:
            task = TaskKind(task_value)
            name = f"{task_value}_instances.jsonl"
            inst_s += self._emit(result, f"{task_value}.instances", name,
                                 ("instances", task, self.instances, None, master),
                                 tf.pipeline.emit_instances, task, self.instances,
                                 master, self._path(name)) or 0.0
        for cell, (task_value, k) in enumerate(
                (t, k) for t in self.traced_tasks for k in self.depths):
            # one master seed per traced file, unlike the script: the depths
            # then hold different puzzles, and a round averages over more of
            # sudoku's long-tailed generation cost
            self._emit_sft(result, TaskKind(task_value), self.records[task_value],
                           k, tf.core.derive_seed(master, cell + 1))
        self._emit(result, "countdown.shuffled", "countdown_k1_shuffled.jsonl",
                   ("shuffled", TaskKind.COUNTDOWN, self.records["countdown"],
                    None, master),
                   self._emit_shuffled, master)
        result.counts["instances"] = len(self.generator_tasks) * self.instances
        result.counts["instances_s"] = inst_s
        result.counts["records"] = result.ops - result.counts["instances"]
        self._digest_files(result)

    def _emit_shuffled(self, master):
        """The script's ablation file: countdown k=1 with deranged answers."""
        pipeline = self.tf.pipeline
        source = self._path("countdown_k1.jsonl")
        target = self._path("countdown_k1_shuffled.jsonl")
        records = pipeline.load_records(source)
        shuffled = pipeline.emit_shuffled(records, random.Random(master))
        digest = pipeline.write_records(shuffled, target)
        manifest = pipeline.DatasetManifest(
            schema_version=pipeline.SCHEMA_VERSION,
            task="countdown",
            count=len(shuffled),
            backtracks=None,
            master_seed=master,
            sha256=digest,
            prompt_template=None,
        )
        with open(pipeline.manifest_path_for(target), "w", encoding="utf-8") as fh:
            fh.write(manifest.to_json())

    def check_round(self, r, result, full):
        super().check_round(r, result, full)
        if full:
            self._check_serial_cell(r)

    def _check_serial_cell(self, r):
        """One pooled cell must be byte-identical to a ``workers=1`` build."""
        tf = self.tf
        task_value, k = self.serial_cell
        name = f"{task_value}_k{k}.jsonl"
        if name not in self._emitted:  # the pooled build raised: a failure
            return
        side = self._path("serial_" + name)
        master = self._emitted[name][4]
        tf.pipeline.emit_sft(tf.core.TaskKind(task_value),
                             self.records[task_value], k, master, side, workers=1)
        for suffix in ("", ".manifest.json"):
            _require(sha256_file(side + suffix) == sha256_file(self._path(name) + suffix),
                     f"{name}{suffix}: workers={self.workers} bytes differ from workers=1")


# --- reward scoring ----------------------------------------------------------

ZEBRA_NAMES = ("Alice", "Bernard", "Chiara", "Dmitri", "Esther", "Farid",
               "Greta", "Hiroshi", "Ingrid", "Jonas")


@dataclass
class _Item:
    instance: object
    completion: str
    expected: object   # category the item was built for; None if adversarial
    task: str


class RewardRollouts(_Workload):
    """Score a seeded mix of completions against instances of all tasks.

    Per instance: its correct completion, the same completion with a wrong
    answer that the task grammar still parses, and the same completion with
    broken tags. Traced tasks use real ``build_traced`` completions; the
    others reuse those think blocks around their own answers. A small fixed
    share of adversarial answers (a long sum, deep nesting, a 1 MB think
    block) rides along. All of it is built in ``setup``; a round scores
    the whole mix once, timing every call.
    """

    name = "reward_rollouts"
    per_task = 40
    setup_every = 50
    depths = (0, 1, 5, 10)
    # adversarial sizes the reward answers within a few milliseconds; the
    # sizes that make it raise are scored in ``finish``, after the timed rounds
    long_sum_terms = 200
    nesting_depth = 100
    big_think_bytes = 1 << 20

    def setup(self, block):
        """Build the mix for one block of rounds. Each block has its own
        instances, so a run scores more of them than one mix holds."""
        tf = self.tf
        core = tf.core
        mix_seed = core.derive_seed(self.seed, block)
        TaskKind = core.TaskKind
        thinks = []
        base = []   # (instance, completion) with a correct answer
        for t, kind in enumerate(TaskKind):
            task_seed = core.derive_seed(mix_seed, t)
            for i in range(self.per_task):
                seed = core.derive_seed(task_seed, i)
                if kind.value in self.traced_tasks:
                    module = getattr(tf, kind.value)
                    inst, trace = module.build_traced(
                        i, seed, self.depths[i % len(self.depths)])
                    completion = core.render_completion(trace)
                    thinks.append(completion[completion.index(core.THINK_OPEN):
                                             completion.index(core.THINK_CLOSE)
                                             + len(core.THINK_CLOSE)])
                    base.append((inst, completion))
                else:
                    inst = self._instance(kind, i, seed)
                    think = thinks[(t * self.per_task + i) % len(thinks)]
                    base.append((inst, self._wrap(think, inst.ground_truth)))
        items = []
        for n, (inst, completion) in enumerate(base):
            task = inst.task.value
            items.append(_Item(inst, completion, "correct", task))
            items.append(_Item(inst, self._with_answer(
                completion, self._wrong_answer(inst)), "incorrect", task))
            items.append(_Item(inst, self._break_tags(completion, n),
                               "incorrect_format", task))
        cd = next(inst for inst, _ in base if inst.task == TaskKind.COUNTDOWN)
        cube = next(inst for inst, _ in base if inst.task == TaskKind.COLOR_CUBE)
        items.append(_Item(cd, self._wrap(thinks[0], "+".join(
            ["1"] * self.long_sum_terms)), None, "countdown"))
        items.append(_Item(cd, self._wrap(thinks[0], "1+(" * self.nesting_depth
                                          + "1" + ")" * self.nesting_depth),
                           None, "countdown"))
        items.append(_Item(cube, self._wrap(
            core.THINK_OPEN + "a" * self.big_think_bytes + core.THINK_CLOSE,
            cube.ground_truth), None, "color_cube"))
        random.Random(mix_seed).shuffle(items)
        self.items = items
        self.probe_cases = [
            (cd, self._wrap(thinks[0], "+".join(["1"] * 1000))),
            (cd, self._wrap(thinks[0], "+".join(["1"] * 5000))),
            (cd, self._wrap(thinks[0], "(" * 1000 + "1" + ")" * 1000)),
            (cube, self._wrap(thinks[0], "red " * (1 << 18))),
        ]

    def _instance(self, kind, i, seed):
        """Instances for tasks without ``build_traced``; zebra and list
        functions have no generator, so the benchmark makes them."""
        tf = self.tf
        builders = {
            "geometry_angle": tf.xtasks.build_angle_instance,
            "geometry_orthocenter": tf.xtasks.build_orthocenter_instance,
            "geometry_incircle": tf.xtasks.build_incircle_instance,
            "color_cube": tf.xtasks.build_cube_instance,
            "self_reference": tf.xtasks.build_selfref_instance,
        }
        if kind.value in builders:
            return builders[kind.value](i, seed)
        rng = random.Random(seed)
        if kind.value == "zebra":
            truth = ZEBRA_NAMES[rng.randrange(len(ZEBRA_NAMES))]
            prompt = "Five people live in a row of houses. Who owns the zebra?"
        else:
            values = [rng.randint(-20, 99) for _ in range(rng.randint(3, 8))]
            truth = "[" + ", ".join(map(str, values)) + "]"
            prompt = "Apply the hidden rule to the last input list."
        return tf.core.ProblemInstance(id=i, task=kind, prompt=prompt,
                                       ground_truth=truth, seed=seed, meta={})

    def _wrap(self, think, answer):
        core = self.tf.core
        return (f"{core.PREAMBLE}\n{think}\n\n"
                f"{core.ANSWER_OPEN}{answer}{core.ANSWER_CLOSE}")

    def _with_answer(self, completion, answer):
        core = self.tf.core
        head = completion[:completion.rindex(core.ANSWER_OPEN)]
        return f"{head}{core.ANSWER_OPEN}{answer}{core.ANSWER_CLOSE}"

    def _break_tags(self, completion, n):
        core = self.tf.core
        how = n % 3
        if how == 0:
            return completion.replace(core.THINK_CLOSE, "", 1)
        if how == 1:
            return completion + "\n" + core.ANSWER_OPEN + "0" + core.ANSWER_CLOSE
        head = completion[:completion.rindex(core.ANSWER_OPEN)]
        return completion[len(head):] + "\n" + head

    def _wrong_answer(self, inst):
        """An answer the task grammar parses but that is not the truth."""
        truth = inst.ground_truth
        task = inst.task.value
        if task == "countdown":
            return truth + " + 1"
        if task == "sudoku":
            row = truth.split("\n")
            cells = row[0].split()
            cells[0], cells[1] = cells[1], cells[0]
            return "\n".join([" ".join(cells)] + row[1:])
        if task == "arc1d":
            cells = truth.split()
            cells[0] = str((int(cells[0]) + 1) % 10)
            return " ".join(cells)
        if task == "geometry_angle":
            return f"{Decimal(truth[:-1]) + 1}°"
        if task == "geometry_orthocenter":
            x, y = truth[1:-1].split(", ")
            return f"({Decimal(x) + 1}, {y})"
        if task == "geometry_incircle":
            return str(Decimal(truth) + 1)
        if task == "color_cube":
            palette = self.tf.xtasks.PALETTE
            return palette[(palette.index(truth) + 1) % len(palette)]
        if task == "self_reference":
            return str(int(truth) + 1)
        if task == "zebra":
            return ZEBRA_NAMES[(ZEBRA_NAMES.index(truth) + 1) % len(ZEBRA_NAMES)]
        values = [int(v) for v in truth[1:-1].split(", ")]
        values[0] += 1
        return "[" + ", ".join(map(str, values)) + "]"

    def _round(self, r, result):
        """Score the whole mix once, timing every call."""
        score = self.tf.reward.score
        clock = time.perf_counter_ns
        task_ns = {}
        task_n = {}
        lat = array("q", bytes(8 * len(self.items)))
        cats = [None] * len(self.items)
        start = time.perf_counter()
        for n, item in enumerate(self.items):
            t0 = clock()
            try:
                cats[n] = score(item.instance, item.completion).category
            except Exception as exc:  # a failed score, reported with the results
                result.failed += 1
                self.record_error(exc)
            t1 = clock()
            lat[n] = t1 - t0
            if item.expected is not None:
                task_ns[item.task] = task_ns.get(item.task, 0) + (t1 - t0)
                task_n[item.task] = task_n.get(item.task, 0) + 1
        result.raw_s = time.perf_counter() - start
        scale = self.clock.factor()
        result.wall_s = result.raw_s * scale
        result.ops = len(self.items)
        for task in self.traced_tasks:
            result.add_task(task, task_n[task], task_ns[task] * scale / 1e9)
        result.latencies_ns = array("q", (round(v * scale) for v in lat))
        self._cats = cats

    def check_round(self, r, result, full):
        """Each non-adversarial completion lands in the category it was
        built for; adversarial ones may land anywhere."""
        for item, cat in zip(self.items, self._cats):
            if item.expected is not None and cat != item.expected:
                raise CheckFailed(
                    f"{item.task} instance {item.instance.id}: a completion "
                    f"built as {item.expected} scored as {cat}")

    def finish(self):
        """Score inputs large enough to break the reward at the baseline commit.

        Kept out of the timed mix so the timed rounds fail no operation;
        every raise here is reported, and counted in ``reward.score.errors``.
        """
        errors = {}
        for inst, completion in self.probe_cases:
            try:
                self.tf.reward.score(inst, completion)
            except Exception as exc:  # reported below, never hidden
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
        self.probe_errors = sum(errors.values())
        return {
            **super().finish(),
            "probe.attempted": len(self.probe_cases),
            "probe.failed": self.probe_errors,
            "probe.fail_share": self.probe_errors / len(self.probe_cases),
            "probe.errors": ", ".join(f"{n} x {k}" for k, n in sorted(errors.items())) or "none",
        }


WORKLOADS = {w.name: w for w in (SftSerial, DatasetLayout, RewardRollouts)}
