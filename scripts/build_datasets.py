#!/usr/bin/env python3
"""Build the standard dataset layout into one directory.

Writes instance files for every generator-backed task, traced SFT sets
for the three traced tasks at each backtrack depth, and a shuffled
variant of the countdown k=1 set for the ablation baseline. Every file
gets a sibling manifest; reruns with the same seed are byte-identical.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from traceforge import pipeline  # noqa: E402
from traceforge.tasks import TASKS  # noqa: E402

TRACE_DEPTHS = (0, 1, 5, 10)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="datasets", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=1000,
                        help="instances per task")
    parser.add_argument("--records", type=int, default=1000,
                        help="records per traced dataset")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)

    generated = [t for t, spec in TASKS.items() if spec.build_instance]
    for task in sorted(generated, key=lambda t: t.value):
        path = os.path.join(args.out, f"{task.value}_instances.jsonl")
        manifest = pipeline.emit_instances(task, args.instances, args.seed, path)
        print(f"{path}  {manifest.count} instances  sha256={manifest.sha256[:12]}")

    for task in (t for t, spec in TASKS.items() if spec.build_traced):
        for k in TRACE_DEPTHS:
            path = os.path.join(args.out, f"{task.value}_k{k}.jsonl")
            manifest = pipeline.emit_sft(task, args.records, k, args.seed,
                                         path, workers=args.workers)
            print(f"{path}  {manifest.count} records  "
                  f"sha256={manifest.sha256[:12]}")

    source = os.path.join(args.out, "countdown_k1.jsonl")
    target = os.path.join(args.out, "countdown_k1_shuffled.jsonl")
    manifest = pipeline.write_shuffled(source, target, args.seed)
    print(f"{target}  {manifest.count} records  sha256={manifest.sha256[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
