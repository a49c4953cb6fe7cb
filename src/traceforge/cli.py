"""The ``forge`` command line tool.

Subcommands mirror the pipeline: generate instances, trace SFT datasets,
build the paper's whole dataset layout, show one traced record, shuffle
completions, score/classify/eval completions against instances, and
summarize datasets. Exit codes: 0 on success, 1 on validation errors
(bad arguments, malformed content, impossible requests), 2 on I/O errors.
The FORGE_SEED environment variable overrides any --seed argument.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import pipeline, reward
from .core import GenerationError, TaskKind
from .tasks import TASKS

GENERATE_TASKS = sorted(t.value for t, spec in TASKS.items() if spec.build_instance)
TRACE_TASKS = sorted(t.value for t, spec in TASKS.items() if spec.build_traced)
ALL_TASKS = sorted(t.value for t in TaskKind)

_SEED = re.compile(r"[0-9]+|0x[0-9a-fA-F]+")


def _parse_seed(text: str) -> int:
    """A --seed or FORGE_SEED value: decimal digits, or 0x and hex digits."""
    if not _SEED.fullmatch(text):
        raise ValueError(f"seed must be decimal digits or 0x and hex digits, "
                         f"got {text!r}")
    value = int(text, 16 if text.startswith("0x") else 10)
    if not 0 <= value < 1 << 64:  # derive_seed would alias a wider one
        raise ValueError(f"seed must be 0 to 2**64 - 1, got {text!r}")
    return value


def _worker_count(text: str) -> int:
    """A --workers value: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _seed_from(args) -> int:
    env = os.environ.get("FORGE_SEED")
    if env is not None:
        return _parse_seed(env)
    return _parse_seed(args.seed)


def _wrote(path, manifest, what) -> None:
    print(f"wrote {manifest.count} {what} to {path}")
    print(f"sha256 {manifest.sha256}")


def _load(args):
    """The instances and completions files; with ``--task``, every instance
    must be of that task."""
    instances = pipeline.load_instances(args.instances)
    for inst in instances:
        if getattr(args, "task", inst.task.value) != inst.task.value:
            raise ValueError(f"instance {inst.id} is a {inst.task.value} "
                             f"instance, but --task is {args.task}")
    return instances, pipeline.read_jsonl(
        args.completions,
        lambda line: reward.checked_completion(json.loads(line)))


def _cmd_generate(args) -> int:
    task = TaskKind(args.task)
    path = pipeline.instances_path(args.out, task)
    manifest = pipeline.emit_instances(task, args.count, _seed_from(args),
                                       path)
    _wrote(path, manifest, "instances")
    return 0


def _cmd_trace(args) -> int:
    task = TaskKind(args.task)
    path = pipeline.traced_path(args.out, task, args.backtracks)
    manifest = pipeline.emit_sft(task, args.count, args.backtracks,
                                 _seed_from(args), path, workers=args.workers)
    _wrote(path, manifest, "records")
    return 0


def _cmd_build(args) -> int:
    for path, manifest, what in pipeline.emit_layout(
            args.out, args.count, _seed_from(args), args.workers):
        _wrote(path, manifest, what)
    return 0


def _cmd_show(args) -> int:
    if not 0 <= args.instance_id < 1 << 64:  # derive_seed would alias it
        raise ValueError(f"--id must be 0 to 2**64 - 1, got {args.instance_id}")
    record = pipeline.build_record(TaskKind(args.task), args.instance_id,
                                   _seed_from(args), args.backtracks)
    print(f"=== prompt ===\n{record.prompt}\n\n"
          f"=== completion ===\n{record.completion}")
    return 0


def _cmd_shuffle(args) -> int:
    manifest = pipeline.write_shuffled(args.in_path, args.out, _seed_from(args))
    _wrote(args.out, manifest, "shuffled records")
    return 0


def _cmd_score(args) -> int:
    lines = []
    for inst, text in reward.pair_completions(*_load(args)):
        b = reward.score(inst, text, gated=not args.ungated)
        lines.append(json.dumps({"instance_id": inst.id, **b._asdict()},
                                ensure_ascii=False))
    pipeline.write_lines(args.out, lines)
    print(f"scored {len(lines)} completions to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    buckets = pipeline.split_by_correctness(*_load(args))
    for name in reward.CATEGORIES:
        path = os.path.join(args.out, f"{name}.jsonl")
        pipeline.write_records(buckets[name], path)
        print(f"{name}: {len(buckets[name])} -> {path}")
    return 0


def _cmd_eval(args) -> int:
    print(reward.render_eval_table(reward.evaluate(*_load(args))))
    return 0


def _cmd_stats(args) -> int:
    records = pipeline.load_records(args.in_path)
    print(json.dumps(pipeline.stats(records), ensure_ascii=False, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Generate, trace, shuffle and score reasoning-task datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write problem instances")
    p.add_argument("--task", required=True, choices=GENERATE_TASKS)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("trace", help="write a traced SFT dataset")
    p.add_argument("--task", required=True, choices=TRACE_TASKS)
    p.add_argument("--backtracks", required=True, type=int)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("build", help="write the paper's dataset layout")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", required=True, type=int,
                   help="instances per task and records per traced file")
    p.add_argument("--seed", default="0")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("show", help="print one traced record's prompt and "
                       "completion")
    p.add_argument("--task", required=True, choices=TRACE_TASKS)
    p.add_argument("--backtracks", required=True, type=int)
    p.add_argument("--seed", default="0")
    p.add_argument("--id", type=int, default=0, dest="instance_id")
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser("shuffle", help="derange completions across records")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(fn=_cmd_shuffle)

    p = sub.add_parser("score", help="score completions against instances")
    p.add_argument("--task", required=True, choices=ALL_TASKS)
    p.add_argument("--instances", required=True)
    p.add_argument("--completions", required=True)
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--ungated", action="store_true",
                   help="award answer points even when tags are malformed")
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("classify", help="split completions by correctness")
    p.add_argument("--task", required=True, choices=ALL_TASKS)
    p.add_argument("--instances", required=True)
    p.add_argument("--completions", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("eval", help="pass rates per task column")
    p.add_argument("--instances", required=True)
    p.add_argument("--completions", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("stats", help="summarize a dataset file")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(fn=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; report as validation error instead
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except (ValueError, KeyError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
