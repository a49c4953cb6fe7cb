#!/usr/bin/env python3
"""Print one generated problem and its traced completion, for eyeballing."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from traceforge import pipeline  # noqa: E402
from traceforge.core import TaskKind  # noqa: E402
from traceforge.tasks import TASKS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", default="countdown",
                        choices=sorted(t.value for t, spec in TASKS.items()
                                       if spec.build_traced))
    parser.add_argument("--backtracks", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--id", type=int, default=0, dest="instance_id")
    args = parser.parse_args()

    record = pipeline.build_record(TaskKind(args.task), args.instance_id,
                                   args.seed, args.backtracks)
    print("=== prompt ===")
    print(record.prompt)
    print()
    print("=== completion ===")
    print(record.completion)
    return 0


if __name__ == "__main__":
    sys.exit(main())
