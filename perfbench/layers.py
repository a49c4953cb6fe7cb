"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules: countdown, sudoku, arc1d, xtasks, search,
core, pipeline and reward (``cli`` is an argparse shell over ``pipeline``).
Self times are reported in seconds per traced round, so they compare
between runs that fit a different number of rounds into their time.
"""

from __future__ import annotations

import os
import statistics

XTASKS_BUILDERS = ("build_angle_instance", "build_orthocenter_instance",
                   "build_incircle_instance", "build_cube_instance",
                   "build_selfref_instance")
TASKS = ("countdown", "sudoku", "arc1d", "geometry_angle",
         "geometry_orthocenter", "geometry_incircle", "color_cube",
         "self_reference", "zebra", "list_functions")
TRACED = ("countdown", "sudoku", "arc1d")
DEPTHS = (0, 1, 5, 10)


def instrument(tracer, tf):
    """Register every wrapped function with the tracer."""
    for module, names in ((tf.countdown, ("generate", "solve_dfs", "reachable",
                                          "make_trace")),
                          (tf.sudoku, ("generate_full", "dig_holes",
                                       "count_solutions", "solve_dfs",
                                       "make_trace")),
                          (tf.arc1d, ("generate", "heuristic_solve",
                                      "make_trace")),
                          (tf.xtasks, XTASKS_BUILDERS)):
        short = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.add(getattr(module, name), f"{short}.{name}")
    task_modules = [tf.countdown, tf.sudoku, tf.arc1d]
    for name in ("select_detours", "solution_path", "linearize"):
        tracer.add(getattr(tf.search, name), f"search.{name}",
                   modules=task_modules)
    for name in ("emit_sft", "emit_instances", "emit_shuffled", "build_records",
                 "build_instances", "build_record", "record_to_json",
                 "load_records", "write_records"):
        tracer.add(getattr(tf.pipeline, name), f"pipeline.{name}")
    tracer.add(tf.core.render_sft_record, "core.render_sft_record")
    tracer.add(tf.core.extract_tags, "core.extract_tags")
    tracer.add(tf.reward.score, "reward.score")
    tracer.add(tf.reward.check_answer, "reward.check_answer",
               label=lambda args: args[0].task.value)


def src_lines(src_dir) -> int:
    total = 0
    for root, _, files in os.walk(src_dir):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def per_layer(tracer, workers, traced_records, traced_walls, plain_walls,
              probe_errors, latencies_ns, src_dir):
    """Every per-layer metric, from one traced run.

    ``traced_walls`` and ``plain_walls`` are the round times of paired
    rounds (same inputs, tracer installed or not); their ratio is the
    tracing overhead.
    """
    rounds = max(1, tracer.rounds)
    out = {}

    def self_s(key):
        return tracer.self_s.get(key, 0.0) / rounds

    def total_s(key):
        return tracer.total_s.get(key, 0.0) / rounds

    for key in ("countdown.solve_dfs", "countdown.generate", "countdown.reachable",
                "sudoku.count_solutions", "sudoku.generate_full",
                "sudoku.dig_holes", "sudoku.solve_dfs", "arc1d.generate",
                "arc1d.heuristic_solve", "core.render_sft_record",
                "pipeline.record_to_json", "core.extract_tags", "reward.score"):
        out[f"{key}.self_s"] = self_s(key)
    out["countdown.reachable.calls"] = tracer.calls.get("countdown.reachable", 0) / rounds
    out["sudoku.count_solutions.calls"] = tracer.calls.get("sudoku.count_solutions", 0) / rounds
    for task in TRACED:
        made = traced_records.get(task, 0)
        out[f"{task}.attempts_per_record"] = (
            tracer.calls.get(f"{task}.make_trace", 0) / made if made else 0.0)
    for name in ("select_detours", "linearize", "solution_path"):
        out[f"search.{name}.self_s"] = self_s(f"search.{name}")
        for task in TRACED:
            out[f"search.{name}.{task}.self_s"] = self_s(f"search.{name}.{task}")
    out["pipeline.write_s"] = (total_s("pipeline.emit_sft")
                               + total_s("pipeline.emit_instances")
                               - total_s("pipeline.build_records")
                               - total_s("pipeline.build_instances"))
    for name in XTASKS_BUILDERS:
        out[f"xtasks.{name}.self_s"] = self_s(f"xtasks.{name}")
    out["pipeline.emit_instances.s"] = total_s("pipeline.emit_instances")
    out["pipeline.emit_shuffled.s"] = total_s("pipeline.emit_shuffled")
    for task in TRACED:
        for k in DEPTHS:
            out[f"pipeline.build_records.{task}.k{k}.s"] = total_s(
                f"pipeline.build_records@{task}.k{k}")
    out["pipeline.worker_busy_ratio"] = (
        tracer.pool_cpu_s / (workers * tracer.pool_wall_s) if workers > 1 else 0.0)
    for task in TASKS:
        out[f"reward.check_answer.{task}.self_s"] = self_s(f"reward.check_answer.{task}")
    out["reward.score.errors"] = probe_errors
    lat = sorted(latencies_ns)
    out["reward.score.p50_us"] = _quantile(lat, 0.50) / 1e3
    out["reward.score.p99_us"] = _quantile(lat, 0.99) / 1e3
    traced = sum(traced_walls)
    out["trace.unattributed_s"] = (traced - tracer.root_s) / rounds
    out["trace.overhead"] = statistics.median(
        t / p - 1.0 for t, p in zip(traced_walls, plain_walls))
    out["src.lines"] = src_lines(src_dir)
    return out


def cell_shares(tracer, top=5):
    """Per dataset cell, the largest self-time shares (for the printout)."""
    shares = {}
    for cell, by_name in sorted(tracer.cell_self_s.items()):
        total = sum(by_name.values())
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
        shares[cell] = {name: round(s / total, 4) for name, s in ranked if total}
    return shares
