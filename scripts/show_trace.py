#!/usr/bin/env python3
"""Print one generated problem and its traced completion, for eyeballing."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from traceforge import pipeline  # noqa: E402
from traceforge.cli import TRACE_TASKS, _parse_seed  # noqa: E402
from traceforge.core import TaskKind  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", default="countdown", choices=TRACE_TASKS)
    parser.add_argument("--backtracks", type=int, default=1)
    parser.add_argument("--seed", default="0",
                        help="decimal digits, or 0x and hex digits")
    parser.add_argument("--id", type=int, default=0, dest="instance_id")
    args = parser.parse_args()
    for flag, value in (("--backtracks", args.backtracks),
                        ("--id", args.instance_id)):
        if value < 0:
            parser.error(f"{flag} must be at least 0, got {value}")
    try:
        seed = _parse_seed(args.seed)
    except ValueError as exc:
        parser.error(f"--seed: {exc}")

    record = pipeline.build_record(TaskKind(args.task), args.instance_id,
                                   seed, args.backtracks)
    print("=== prompt ===")
    print(record.prompt)
    print()
    print("=== completion ===")
    print(record.completion)
    return 0


if __name__ == "__main__":
    sys.exit(main())
