#!/usr/bin/env python3
"""Benchmark traceforge's SFT build loop and its reward scoring loop.

    python3 perfbench/run.py --workload sft_serial --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) for ``--seconds`` of timed rounds
after an untimed warm-up round, checks every round's output, prints each
metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones listed in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, from rounds run twice on the
same inputs, once plain and once with the span tracer installed.

Run it from a checkout of the repository: the program is imported from
``src/``, and scratch files stay under ``perfbench/work`` and
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)

from hostclock import HostClock  # noqa: E402
from layers import cell_shares, instrument, per_layer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

MODULES = ("core", "search", "countdown", "sudoku", "arc1d", "xtasks",
           "reward", "pipeline", "cli")

# Times the imports in host-normalized seconds with the child's own
# reference loop, which runs on the same core as the imports.
IMPORT_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "from hostclock import HostClock\n"
    "clock = HostClock()\n"
    "t = time.perf_counter()\n"
    + "".join(f"import traceforge.{m}\n" for m in MODULES)
    + "print((time.perf_counter() - t) * clock.factor())\n"
)
# fresh interpreters per set-up; set-up takes their median import time
IMPORT_SAMPLES = 3
# peak_rss_mb is read after this many timed rounds (or at the end of a
# shorter run), so it does not grow with the rounds a faster program fits in
RSS_ROUNDS = 3


def import_seconds() -> float:
    """Normalized seconds a fresh interpreter takes to import the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip())


def load_package():
    sys.path.insert(0, SRC)
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"traceforge.{m}") for m in MODULES})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark invocation: set-up, warm-up, timed rounds, checks."""

    def __init__(self, args, spec, workdir):
        self.args = args
        self.spec = spec
        self.tf = load_package()
        self.tracer = Tracer(vars(self.tf).values()) if args.trace else None
        if self.tracer is not None:
            instrument(self.tracer, self.tf)
        self.clock = HostClock()
        self.workload = WORKLOADS[args.workload](self.tf, args.seed, workdir,
                                                 self.clock, self.tracer)
        self.rounds = []        # plain rounds inside the measured time
        self.pairs = []         # (traced wall, plain wall) per traced round
        self.traced_records = {}
        self.facts = {}

    def setup_once(self, block):
        """One set-up: the median import time of the package over
        ``IMPORT_SAMPLES`` fresh interpreters, plus the workload's own
        set-up for a block of rounds, in this process."""
        imported = statistics.median(import_seconds() for _ in range(IMPORT_SAMPLES))
        self.clock.mark()
        start = time.perf_counter()
        self.workload.setup(block)
        in_process = (time.perf_counter() - start) * self.clock.factor()
        self.setup_times.append(imported + in_process)

    def measure(self):
        """Warm-up round, then timed rounds for ``--seconds``.

        Set-up repeats every ``setup_every`` rounds, so its median samples
        the same stretch of host load as the rounds do.
        """
        w = self.workload
        import_seconds()  # compile the bytecode once, as an installed package has
        self.setup_times = []
        self.setup_once(0)
        warm = w.run_round(0)
        w.check_round(0, warm, full=True)
        timed = 0.0
        r = 1
        while timed < self.args.seconds:
            if r > 1 and (r - 1) % w.setup_every == 0:
                self.setup_once((r - 1) // w.setup_every)
            plain = w.run_round(r)
            w.check_round(r, plain, full=False)
            self.rounds.append(plain)
            if r == RSS_ROUNDS:
                self.rss_mb = peak_rss_mb()
            timed += plain.elapsed_s
            if self.tracer is not None:
                timed += self._traced_round(r, plain)
            r += 1
        if len(self.rounds) < RSS_ROUNDS:
            self.rss_mb = peak_rss_mb()
        self.facts["setup_reps"] = len(self.setup_times)
        self.facts.update(w.finish())

    def _traced_round(self, r, plain):
        w = self.workload
        self.tracer.install()
        try:
            traced = w.run_round(r)
        finally:
            self.tracer.uninstall()
        self.tracer.take_round(traced.wall_s / traced.raw_s)
        w.check_round(r, traced, full=False)
        if traced.digests != plain.digests:
            raise CheckFailed(f"round {r}: traced and plain runs wrote different bytes")
        for task, n in traced.task_ops.items():
            self.traced_records[task] = self.traced_records.get(task, 0) + n
        self.pairs.append((traced.wall_s, plain.wall_s))
        return traced.elapsed_s

    # --- results ---------------------------------------------------------

    def _pooled(self, ops, seconds):
        """Operations per second over all rounds (a ratio of sums: rounds
        differ in inputs, and every operation counts once)."""
        return sum(map(ops, self.rounds)) / sum(map(seconds, self.rounds))

    def _task_rate(self, task):
        return self._pooled(lambda x: x.task_ops.get(task, 0),
                            lambda x: x.task_s.get(task, 0.0))

    def end_to_end(self):
        out = {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": sum(x.wall_s for x in self.rounds) / len(self.rounds),
            "ops_per_s": self._pooled(lambda x: x.ops, lambda x: x.wall_s),
            "peak_rss_mb": self.rss_mb,
        }
        for task in ("countdown", "sudoku", "arc1d"):
            out[f"{task}.ops_per_s"] = self._task_rate(task)
        return out

    def named(self):
        """The workload's own figures (records_per_s, scores_per_s, latency
        percentiles, fail_share, ...), for the printout and the report."""
        rounds = self.rounds
        attempted = sum(x.ops for x in rounds)
        failed = sum(x.failed for x in rounds)
        kind = self.args.workload
        named = {"rounds": len(rounds), "fail_share": failed / max(1, attempted),
                 "host_scale": (sum(x.wall_s for x in rounds)
                                / sum(x.raw_s for x in rounds)),
                 "raw_ops_per_s": self._pooled(lambda x: x.ops, lambda x: x.raw_s)}
        if kind == "reward_rollouts":
            lat = sorted(v for x in rounds for v in x.latencies_ns)
            named["scores_per_s"] = self._pooled(lambda x: x.ops, lambda x: x.wall_s)
            named["score_p50_us"] = lat[len(lat) // 2] / 1e3
            named["score_p99_us"] = lat[min(len(lat) - 1, int(0.99 * len(lat)))] / 1e3
            named["score_samples"] = len(lat)
        else:
            named["records_per_s"] = self._pooled(
                lambda x: x.counts.get("records", x.ops), lambda x: x.wall_s)
            if kind == "dataset_layout":
                named["instances_per_s"] = self._pooled(
                    lambda x: x.counts["instances"], lambda x: x.counts["instances_s"])
        for task in ("countdown", "sudoku", "arc1d"):
            name = "scores_per_s" if kind == "reward_rollouts" else "rec_per_s"
            named[f"{task}.{name}"] = self._task_rate(task)
        named.update(self.facts)
        return named

    def per_layer(self):
        w = self.workload
        lat = [v for x in self.rounds for v in x.latencies_ns]
        return per_layer(self.tracer, w.workers, self.traced_records,
                         [t for t, _ in self.pairs], [p for _, p in self.pairs],
                         self.facts.get("probe.failed", 0), lat, SRC)


def _emit(run, metrics, named):
    args = run.args
    for name, value in named.items():
        print(f"  {name:<34} {value}")
    listed = run.spec["per_layer" if args.trace else "end_to_end"]
    result = {}
    for entry in listed:
        if entry["name"] not in metrics:
            raise KeyError(f"metric {entry['name']} was not measured")
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<36} {value:>16.6f} {entry['unit']}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "metrics": result, "named": named,
              "rounds": [{"wall_s": x.wall_s, "ops": x.ops, "task_ops": x.task_ops,
                          "task_s": x.task_s} for x in run.rounds]}
    if args.trace:
        report["cell_self_time_shares"] = cell_shares(run.tracer)
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in run.tracer.kept_spans:
                fh.write(json.dumps(dict(zip(
                    ("round", "name", "sub", "start", "end", "parent", "cell"),
                    span))) + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "traceforge", "__init__.py")):
        print(f"error: no traceforge sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work_root = os.path.join(HERE, "work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        run = Run(args, spec, workdir)
        print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        try:
            run.measure()
        except CheckFailed as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            correct, metrics = False, {}
        else:
            correct = True
            metrics = _emit(run, run.per_layer() if args.trace else run.end_to_end(),
                            run.named())
        print(json.dumps({"correct": correct,
                          "attempted": max(1, sum(x.ops for x in run.rounds)),
                          "failed": sum(x.failed for x in run.rounds),
                          "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
