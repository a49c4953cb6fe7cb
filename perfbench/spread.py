#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound.

    python3 perfbench/spread.py --seeds 10 --traced-seed 1 --out perfbench/baseline.json

The spread of a metric is (third quartile - first quartile) / median over
the runs, quartiles as ``statistics.quantiles(values, n=4)`` gives them. A
metric is steady when its spread stays below a third of its bound. The
spread of ``setup_s`` is printed but not gated: ``reward_rollouts`` builds
its mix from the seed in set-up, and sudoku's long-tailed generation cost
makes that set-up's work differ between seeds, not only its noise.
``setup_s`` is bounded instead by comparing its median between two sets of
runs on the same seeds.

Every workload of ``BENCHMARK.json`` runs on seeds 1 to ``--seeds`` for its
``run_seconds``. ``--traced-seed`` adds one ``--trace 1`` run per workload,
whose per-layer metrics go into the report as well; the report then has the
shape of ``baseline.json``. Runs go one at a time, so they do not compete
for the cores they measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced-seed", type=int,
                        help="also make one traced run per workload at this seed")
    parser.add_argument("--out", help="write medians, quartiles and runs here")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    report = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            gated = name != "setup_s"
            ok = not gated or spread < metric["bound"] / 3
            steady &= ok
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": metric["bound"], "unit": metric["unit"],
                          "values": values}
            print(f"  {name:<24} median {med:>12.4f} {metric['unit']:<5} "
                  f"spread {spread:6.3f} bound {metric['bound']:.2f}"
                  f"{'' if ok else '  <-- above a third of the bound'}"
                  f"{'' if gated else '  (spread not gated)'}")
        report[workload] = {"seeds": [1, args.seeds], "seconds": seconds,
                            "metrics": rows}
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, trace=1)
            report[workload]["per_layer"] = {
                "seed": args.traced_seed,
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
