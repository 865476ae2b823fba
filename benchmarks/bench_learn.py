"""Bench smoke: learned-predictor training and batch-inference throughput.

Standalone script (not a pytest-benchmark suite) so CI can run it as a
gate: it times ``fit`` over every default learned config (training
events/s) and frozen-model inference two ways — the sequential
reference ``evaluate`` and the columnar LUT kernels
(``evaluate_many``) — verifies both produce identical results, and
writes the wall-clocks and events/s to a JSON report.  Exits non-zero
on a result mismatch or when either throughput falls below its floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_learn.py \
        --output BENCH_learn.json [--names a,b] [--scale 1] \
        [--repeats 3] [--min-train-eps 5000] [--min-infer-eps 50000]

The tracked metrics (train/infer events per second) append one row to
``BENCH_history.jsonl`` (see ``benchmarks/history.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from repro.learn import LearnedPredictor, default_learned_configs, fit, holdout_trace
from repro.predictors import evaluate, evaluate_many
from repro.workloads import BENCHMARK_NAMES, get_artifacts

SPLIT = 0.5


def results_equal(a, b) -> bool:
    return (
        a.events == b.events
        and a.mispredictions == b.mispredictions
        and a.per_site == b.per_site
    )


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--names", default=None, help="comma-separated benchmarks")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing")
    parser.add_argument(
        "--min-train-eps",
        type=float,
        default=5_000.0,
        help="required training throughput (events/s across all configs)",
    )
    parser.add_argument(
        "--min-infer-eps",
        type=float,
        default=50_000.0,
        help="required batch-inference throughput (events/s)",
    )
    parser.add_argument("--output", default="BENCH_learn.json")
    parser.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="perf-history file to append the tracked metrics to "
        "('' disables)",
    )
    args = parser.parse_args(argv)
    names = (
        [n for n in args.names.split(",") if n] if args.names else BENCHMARK_NAMES
    )
    configs = default_learned_configs()

    # Artifacts, columns and holdouts are warmed outside the timed
    # regions; training and inference are what this bench prices.
    traces = {name: get_artifacts(name, scale=args.scale).trace for name in names}
    columns = {name: traces[name].columns() for name in names}
    holdouts = {name: holdout_trace(traces[name], SPLIT) for name in names}
    train_events = sum(int(len(traces[name]) * SPLIT) for name in names) * len(configs)
    infer_events = sum(len(holdouts[name]) for name in names) * len(configs)

    train_seconds = float("inf")
    models: Dict[str, list] = {}
    for _ in range(args.repeats):
        started = time.perf_counter()
        models = {
            name: [fit(columns[name], config, SPLIT) for config in configs]
            for name in names
        }
        train_seconds = min(train_seconds, time.perf_counter() - started)

    def predictors(name: str) -> List[LearnedPredictor]:
        return [LearnedPredictor(model) for model in models[name]]

    sequential_seconds = batch_seconds = float("inf")
    mismatches: List[str] = []
    for _ in range(args.repeats):
        started = time.perf_counter()
        sequential = {
            name: [evaluate(p, holdouts[name]) for p in predictors(name)]
            for name in names
        }
        sequential_seconds = min(sequential_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        batch = {
            name: evaluate_many(predictors(name), holdouts[name])
            for name in names
        }
        batch_seconds = min(batch_seconds, time.perf_counter() - started)

        mismatches = [
            f"{name}/{a.predictor}"
            for name in names
            for a, b in zip(sequential[name], batch[name])
            if not results_equal(a, b)
        ]
        if mismatches:
            break

    train_eps = train_events / train_seconds
    infer_eps = infer_events / batch_seconds
    report = {
        "benchmarks": list(names),
        "scale": args.scale,
        "configs": [config.name for config in configs],
        "train": {
            "seconds": train_seconds,
            "events": train_events,
            "events_per_second": train_eps,
        },
        "sequential": {
            "seconds": sequential_seconds,
            "events_per_second": infer_events / sequential_seconds,
        },
        "batch": {
            "seconds": batch_seconds,
            "events_per_second": infer_eps,
        },
        "train_events_per_second": train_eps,
        "infer_events_per_second": infer_eps,
        "min_train_eps": args.min_train_eps,
        "min_infer_eps": args.min_infer_eps,
        "results_identical": not mismatches,
        "mismatches": mismatches,
    }
    with open(args.output, "w") as stream:
        json.dump(report, stream, indent=2)
        stream.write("\n")
    print(
        f"train {train_seconds:.3f}s ({train_eps:,.0f} ev/s over "
        f"{len(configs)} configs) | infer sequential "
        f"{sequential_seconds:.3f}s vs batch {batch_seconds:.3f}s "
        f"({infer_eps:,.0f} ev/s) -> {args.output}"
    )
    if args.history:
        import history

        history.append_row(
            "learn",
            report,
            history_path=args.history,
            context={"benchmarks": list(names), "scale": args.scale},
        )
        print(f"history row appended to {args.history}")

    if mismatches:
        print(f"FAIL: results differ: {', '.join(mismatches)}", file=sys.stderr)
        return 1
    if train_eps < args.min_train_eps:
        print(
            f"FAIL: training throughput {train_eps:,.0f} ev/s below "
            f"required {args.min_train_eps:,.0f}",
            file=sys.stderr,
        )
        return 1
    if infer_eps < args.min_infer_eps:
        print(
            f"FAIL: inference throughput {infer_eps:,.0f} ev/s below "
            f"required {args.min_infer_eps:,.0f}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
