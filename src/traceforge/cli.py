"""The ``forge`` command line tool.

Subcommands mirror the pipeline: generate instances, trace SFT datasets,
shuffle completions, score/classify/eval completions against instances,
and summarize datasets. Exit codes: 0 on success, 1 on validation errors
(bad arguments, malformed content, impossible requests), 2 on I/O errors.
The FORGE_SEED environment variable overrides any --seed argument.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pipeline, reward
from .core import GenerationError, MultipleSolutionsError, NoSolutionError, TaskKind
from .tasks import TASKS

GENERATE_TASKS = sorted(t.value for t, spec in TASKS.items() if spec.build_instance)
TRACE_TASKS = sorted(t.value for t, spec in TASKS.items() if spec.build_traced)
ALL_TASKS = sorted(t.value for t in TaskKind)


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 0)  # accepts decimal and 0x-prefixed hex
    except ValueError:
        raise ValueError(f"seed must be an integer, got {text!r}") from None
    if value < 0:
        raise ValueError("seed must be non-negative")
    return value


def _seed_from(args) -> int:
    env = os.environ.get("FORGE_SEED")
    if env is not None:
        return _parse_seed(env)
    return _parse_seed(args.seed)


def _load_completions(path) -> list:
    items = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "instance_id" not in obj or "completion" not in obj:
                raise ValueError(
                    f"{path}:{n}: completion records need instance_id and completion"
                )
            items.append(obj)
    return items


def _check_instances_task(instances, task_value: str) -> None:
    for inst in instances:
        if inst.task.value != task_value:
            raise ValueError(
                f"instance {inst.id} is a {inst.task.value} instance, "
                f"but --task is {task_value}"
            )


def _cmd_generate(args) -> int:
    task = TaskKind(args.task)
    seed = _seed_from(args)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{task.value}_instances.jsonl")
    manifest = pipeline.emit_instances(task, args.count, seed, out_path)
    print(f"wrote {manifest.count} instances to {out_path}")
    print(f"sha256 {manifest.sha256}")
    return 0


def _cmd_trace(args) -> int:
    task = TaskKind(args.task)
    seed = _seed_from(args)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(
        args.out, f"{task.value}_k{args.backtracks}.jsonl"
    )
    manifest = pipeline.emit_sft(task, args.count, args.backtracks, seed,
                                 out_path, workers=args.workers)
    print(f"wrote {manifest.count} records to {out_path}")
    print(f"sha256 {manifest.sha256}")
    return 0


def _cmd_shuffle(args) -> int:
    manifest = pipeline.write_shuffled(args.in_path, args.out, _seed_from(args))
    print(f"wrote {manifest.count} shuffled records to {args.out}")
    print(f"sha256 {manifest.sha256}")
    return 0


def _cmd_score(args) -> int:
    instances = pipeline.load_instances(args.instances)
    _check_instances_task(instances, args.task)
    completions = _load_completions(args.completions)
    by_id = {inst.id: inst for inst in instances}
    lines = []
    for item in completions:
        iid = int(item["instance_id"])
        inst = by_id.get(iid)
        if inst is None:
            raise ValueError(f"completion references unknown instance {iid}")
        b = reward.score(inst, item["completion"], gated=not args.ungated)
        lines.append(json.dumps(
            {
                "instance_id": iid,
                "format_score": b.format_score,
                "answer_score": b.answer_score,
                "total": b.total,
                "category": b.category,
            },
            ensure_ascii=False,
        ))
    pipeline.write_lines(args.out, lines)
    print(f"scored {len(lines)} completions to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    instances = pipeline.load_instances(args.instances)
    _check_instances_task(instances, args.task)
    completions = _load_completions(args.completions)
    buckets = pipeline.split_by_correctness(instances, completions)
    os.makedirs(args.out, exist_ok=True)
    for name in reward.CATEGORIES:
        path = os.path.join(args.out, f"{name}.jsonl")
        pipeline.write_records(buckets[name], path)
        print(f"{name}: {len(buckets[name])} -> {path}")
    return 0


def _cmd_eval(args) -> int:
    instances = pipeline.load_instances(args.instances)
    completions = _load_completions(args.completions)
    rates = reward.evaluate(instances, completions)
    print(reward.render_eval_table(rates))
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
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_trace)

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
    except (ValueError, KeyError, GenerationError, NoSolutionError,
            MultipleSolutionsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
