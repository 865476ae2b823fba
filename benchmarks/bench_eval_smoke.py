"""Bench smoke: columnar batch engine vs the sequential reference.

Standalone script (not a pytest-benchmark suite) so CI can run it as a
gate: it times table1's eight-strategy predictor set per benchmark two
ways — the legacy path (one sequential `evaluate` call — one trace
scan — per predictor, the gated baseline) and the columnar
batch-kernel engine (`evaluate_many`) — verifies both produce
identical results, and writes the wall-clocks, events/sec and the
batch-over-legacy speedup to a JSON report.  Exits non-zero when that
speedup falls below the threshold.

It also gates the observability layer: the batch region is timed once
with no trace active (spans are no-ops, the default) and once under an
active trace that collects every span, and the run fails when the
traced run is more than ``--max-obs-overhead`` slower.  (The traced
run is a superset of the untraced run's work, so the ratio bounds the
instrumentation cost from above.)

Usage::

    PYTHONPATH=src python benchmarks/bench_eval_smoke.py \
        --output BENCH_eval.json [--names a,b] [--scale 1] \
        [--repeats 3] [--min-speedup 31.0] [--max-obs-overhead 0.05]

The tracked metrics (speedup, events/s) also append one row to
``BENCH_history.jsonl`` (see ``benchmarks/history.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Dict, List

from repro.obs import OBS
from repro.predictors import (
    CorrelationPredictor,
    LastDirection,
    LoopCorrelationPredictor,
    LoopPredictor,
    ProfilePredictor,
    SaturatingCounter,
    evaluate,
    evaluate_many,
    two_level_4k,
)
from repro.workloads import BENCHMARK_NAMES, get_artifacts, get_profile


def predictor_set(profile):
    """Table 1's eight strategies (see repro.experiments.table1)."""
    return [
        LastDirection(),
        SaturatingCounter(2),
        two_level_4k(),
        ProfilePredictor(profile),
        CorrelationPredictor(profile, 1),
        LoopPredictor(profile, 1),
        LoopPredictor(profile, 9),
        LoopCorrelationPredictor(profile),
    ]


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
        "--min-speedup",
        type=float,
        default=31.0,
        help="required batch-engine speedup over the legacy sequential path",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.05,
        help="maximum allowed fractional slowdown of the engine hot path "
        "under an active trace (bounds the untraced overhead)",
    )
    parser.add_argument("--output", default="BENCH_eval.json")
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

    # Warm every artifact — and build the predictor sets — outside the
    # timed regions: profile marginalization is identical setup work
    # for both paths and would only dilute the measured ratio.
    # Reuse across passes is safe: every evaluation path resets
    # predictor state first and the batch kernels never mutate it.
    profiles = {name: get_profile(name, args.scale) for name in names}
    traces = {name: get_artifacts(name, scale=args.scale).trace for name in names}
    predictors = {name: predictor_set(profiles[name]) for name in names}
    events = sum(len(traces[name]) for name in names)
    n_predictors = len(predictors[names[0]])

    legacy_seconds = batch_seconds = float("inf")
    mismatches: List[str] = []
    for _ in range(args.repeats):
        started = time.perf_counter()
        legacy: Dict[str, list] = {
            name: [evaluate(p, traces[name]) for p in predictors[name]]
            for name in names
        }
        legacy_seconds = min(legacy_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        batch: Dict[str, list] = {
            name: evaluate_many(predictors[name], traces[name])
            for name in names
        }
        batch_seconds = min(batch_seconds, time.perf_counter() - started)

        mismatches = [
            f"{name}/{a.predictor}"
            for name in names
            for a, b in zip(legacy[name], batch[name])
            if not results_equal(a, b)
        ]
        if mismatches:
            break

    # Obs gate: re-time the batch region under an active trace, against
    # a freshly measured untraced baseline.  The batch pass is only
    # a few milliseconds now, so each sample loops enough inner passes
    # to push the timed region above scheduler/timer noise — otherwise
    # the gate would compare two sub-10ms samples and flap.
    inner = max(1, min(32, round(0.05 / max(batch_seconds, 1e-6))))

    def time_batch_sample(traced: bool) -> float:
        # GC pauses land preferentially in the traced samples (spans
        # are the only extra allocations here), which reads as phantom
        # obs overhead; collect up front and hold GC off while timing.
        gc.collect()
        gc.disable()
        if traced:
            OBS.start_trace()
        try:
            started = time.perf_counter()
            for _ in range(inner):
                for name in names:
                    evaluate_many(predictors[name], traces[name])
            return (time.perf_counter() - started) / inner
        finally:
            if traced:
                OBS.end_trace()
            gc.enable()

    # Each round measures both sides back to back (flipping which goes
    # first) and contributes one *paired* traced/untraced ratio, so
    # clock-frequency drift over the measurement window cancels within
    # the pair.  The gate takes the minimum ratio across rounds: the
    # overhead is a fixed cost, so any one clean round bounds it from
    # above, and a transient stall in a single round cannot flap a ~5%
    # gate the way comparing two independent best-of minima can.
    obs_untraced_seconds = obs_traced_seconds = float("inf")
    obs_ratio = float("inf")
    for round_index in range(max(args.repeats, 9)):
        pair = {}
        for traced in (False, True) if round_index % 2 == 0 else (True, False):
            pair[traced] = time_batch_sample(traced)
        obs_traced_seconds = min(obs_traced_seconds, pair[True])
        obs_untraced_seconds = min(obs_untraced_seconds, pair[False])
        obs_ratio = min(obs_ratio, pair[True] / pair[False])
    obs_overhead = obs_ratio - 1.0

    speedup = legacy_seconds / batch_seconds
    report = {
        "benchmarks": list(names),
        "scale": args.scale,
        "predictors": n_predictors,
        "events_per_benchmark_pass": events,
        "legacy": {
            "seconds": legacy_seconds,
            "trace_scans": len(names) * n_predictors,
            "events_per_second": events * n_predictors / legacy_seconds,
        },
        "batch": {
            "seconds": batch_seconds,
            "trace_scans": 0,
            "events_per_second": events * n_predictors / batch_seconds,
        },
        "speedup": speedup,
        "events_per_second": events * n_predictors / batch_seconds,
        "min_speedup": args.min_speedup,
        "obs": {
            "traced_seconds": obs_traced_seconds,
            "untraced_seconds": obs_untraced_seconds,
            "inner_passes": inner,
            "overhead": obs_overhead,
            "max_overhead": args.max_obs_overhead,
        },
        "results_identical": not mismatches,
        "mismatches": mismatches,
    }
    with open(args.output, "w") as stream:
        json.dump(report, stream, indent=2)
        stream.write("\n")
    print(
        f"legacy {legacy_seconds:.3f}s vs batch {batch_seconds:.3f}s "
        f"({speedup:.2f}x over legacy, "
        f"{events} events x {n_predictors} predictors); "
        f"obs overhead {obs_overhead:+.1%} -> {args.output}"
    )
    if args.history:
        import history

        history.append_row(
            "eval",
            report,
            history_path=args.history,
            context={"benchmarks": list(names), "scale": args.scale},
        )
        print(f"history row appended to {args.history}")

    if mismatches:
        print(f"FAIL: results differ: {', '.join(mismatches)}", file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if obs_overhead > args.max_obs_overhead:
        print(
            f"FAIL: obs overhead {obs_overhead:.1%} above allowed "
            f"{args.max_obs_overhead:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
