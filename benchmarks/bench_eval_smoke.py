"""Bench smoke: the evaluation engine and the learned predictors.

Standalone script so CI can run it as a gate.  Per benchmark it warms
the artifacts, then times two predictor sets two ways each — the
sequential reference (one `evaluate` call, one trace scan, per
predictor) and the columnar batch engine (`evaluate_many`) — and
checks that both ways produce identical results:

* **Table 1's eight strategies** over the whole trace.  The gated
  figure is the batch-over-sequential speedup.
* **The default learned configs**, each first trained with ``fit`` on
  the first half of the trace (timed: training events/s), then frozen
  and scored on the held-out half (gated: batch-inference events/s).

It also gates the observability layer: the Table 1 batch region is
timed once with no trace active (spans are no-ops, the default) and
once under an active trace that collects every span, and the run fails
when the traced run is more than ``--max-obs-overhead`` slower.  (The
traced run is a superset of the untraced run's work, so the ratio
bounds the instrumentation cost from above.)

Usage::

    PYTHONPATH=src python benchmarks/bench_eval_smoke.py \
        --output BENCH_eval.json [--names a,b] [--scale 1] \
        [--repeats 3] [--min-speedup 31.0] [--max-obs-overhead 0.05] \
        [--min-train-eps 5000] [--min-infer-eps 50000]

The report goes to ``--output`` (the learned figures under ``learn``).
The run exits 1 on a result mismatch or when any gated figure misses
its bound or is not finite, and 2 on unusable arguments or when numpy
is unavailable (``REPRO_NO_NUMPY`` set): ``evaluate_many`` then *is*
the sequential reference, so there is nothing to compare.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from typing import Callable, Dict, List

from repro.learn import LearnedPredictor, default_learned_configs, fit, holdout_trace
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
from repro.profiling.columns import get_numpy
from repro.workloads import BENCHMARK_NAMES, get_artifacts, get_profile

# Learned models train on this leading fraction of each trace and are
# scored on the rest.
SPLIT = 0.5


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


def compare(names: List[str], make: Callable[[str], list], traces, repeats: int):
    """Best-of-*repeats* wall-clock of the sequential reference and of
    ``evaluate_many`` over every benchmark, plus the predictors whose
    results differ between the two (the loop stops at the first
    differing pass).  ``make(name)`` supplies each benchmark's
    predictors inside the timed region."""
    sequential_seconds = batch_seconds = float("inf")
    mismatches: List[str] = []
    for _ in range(repeats):
        started = time.perf_counter()
        sequential = {
            name: [evaluate(p, traces[name]) for p in make(name)] for name in names
        }
        sequential_seconds = min(sequential_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        batch = {name: evaluate_many(make(name), traces[name]) for name in names}
        batch_seconds = min(batch_seconds, time.perf_counter() - started)

        mismatches = [
            f"{name}/{a.predictor}"
            for name in names
            for a, b in zip(sequential[name], batch[name])
            if not results_equal(a, b)
        ]
        if mismatches:
            break
    return sequential_seconds, batch_seconds, mismatches


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def name_list(text: str) -> List[str]:
    names = [n for n in text.split(",") if n]
    if not names:
        raise argparse.ArgumentTypeError("lists no benchmark")
    return names


def below(value: float, floor: float) -> bool:
    """True when *value* fails a ``>= floor`` gate; NaN and inf fail."""
    return not (math.isfinite(value) and value >= floor)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--names", type=name_list, default=None, help="comma-separated benchmarks"
    )
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument(
        "--repeats", type=positive_int, default=3, help="best-of timing"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=31.0,
        help="required batch-engine speedup over the sequential reference "
        "on Table 1's predictor set",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.05,
        help="maximum allowed fractional slowdown of the engine hot path "
        "under an active trace (bounds the untraced overhead)",
    )
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
        help="required learned batch-inference throughput (events/s)",
    )
    parser.add_argument("--output", default="BENCH_eval.json")
    args = parser.parse_args(argv)
    if get_numpy() is None:
        print(
            "bench_eval_smoke: numpy is unavailable or REPRO_NO_NUMPY is set; "
            "evaluate_many would time the sequential reference against itself",
            file=sys.stderr,
        )
        return 2
    names = args.names or BENCHMARK_NAMES
    configs = default_learned_configs()

    # Warm every artifact, column set and holdout — and build Table 1's
    # predictor sets — outside the timed regions: profile
    # marginalization is identical setup work for both paths and would
    # only dilute the measured ratio.  Reusing Table 1's predictors
    # across passes is safe: every evaluation path resets predictor
    # state first and the batch kernels never mutate it.
    profiles = {name: get_profile(name, args.scale) for name in names}
    traces = {name: get_artifacts(name, scale=args.scale).trace for name in names}
    columns = {name: traces[name].columns() for name in names}
    holdouts = {name: holdout_trace(traces[name], SPLIT) for name in names}
    predictors = {name: predictor_set(profiles[name]) for name in names}
    events = sum(len(traces[name]) for name in names)
    n_predictors = len(predictors[names[0]])
    train_events = sum(int(len(traces[name]) * SPLIT) for name in names) * len(configs)
    infer_events = sum(len(holdouts[name]) for name in names) * len(configs)

    legacy_seconds, batch_seconds, mismatches = compare(
        names, predictors.__getitem__, traces, args.repeats
    )

    train_seconds = float("inf")
    models: Dict[str, list] = {}
    for _ in range(args.repeats):
        started = time.perf_counter()
        models = {
            name: [fit(columns[name], config, SPLIT) for config in configs]
            for name in names
        }
        train_seconds = min(train_seconds, time.perf_counter() - started)
    # Fresh predictors per pass: a LearnedPredictor caches its lookup
    # tables, and building them is part of the inference measured.
    learn_sequential_seconds, learn_batch_seconds, learn_mismatches = compare(
        names,
        lambda name: [LearnedPredictor(model) for model in models[name]],
        holdouts,
        args.repeats,
    )

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
    train_eps = train_events / train_seconds
    infer_eps = infer_events / learn_batch_seconds
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
        "learn": {
            "configs": [config.name for config in configs],
            "train": {
                "seconds": train_seconds,
                "events": train_events,
                "events_per_second": train_eps,
            },
            "sequential": {
                "seconds": learn_sequential_seconds,
                "events_per_second": infer_events / learn_sequential_seconds,
            },
            "batch": {
                "seconds": learn_batch_seconds,
                "events_per_second": infer_eps,
            },
            "train_events_per_second": train_eps,
            "infer_events_per_second": infer_eps,
            "min_train_eps": args.min_train_eps,
            "min_infer_eps": args.min_infer_eps,
            "results_identical": not learn_mismatches,
            "mismatches": learn_mismatches,
        },
    }
    with open(args.output, "w") as stream:
        json.dump(report, stream, indent=2)
        stream.write("\n")
    print(
        f"legacy {legacy_seconds:.3f}s vs batch {batch_seconds:.3f}s "
        f"({speedup:.2f}x over legacy, "
        f"{events} events x {n_predictors} predictors); "
        f"obs overhead {obs_overhead:+.1%}"
    )
    print(
        f"learn: train {train_seconds:.3f}s ({train_eps:,.0f} ev/s over "
        f"{len(configs)} configs) | infer sequential "
        f"{learn_sequential_seconds:.3f}s vs batch {learn_batch_seconds:.3f}s "
        f"({infer_eps:,.0f} ev/s) -> {args.output}"
    )

    failures = []
    if mismatches or learn_mismatches:
        failures.append(
            f"results differ: {', '.join(mismatches + learn_mismatches)}"
        )
    if below(speedup, args.min_speedup):
        failures.append(
            f"speedup {speedup:.2f}x below required {args.min_speedup:.2f}x"
        )
    if not (math.isfinite(obs_overhead) and obs_overhead <= args.max_obs_overhead):
        failures.append(
            f"obs overhead {obs_overhead:.1%} above allowed "
            f"{args.max_obs_overhead:.1%}"
        )
    if below(train_eps, args.min_train_eps):
        failures.append(
            f"training throughput {train_eps:,.0f} ev/s below "
            f"required {args.min_train_eps:,.0f}"
        )
    if below(infer_eps, args.min_infer_eps):
        failures.append(
            f"inference throughput {infer_eps:,.0f} ev/s below "
            f"required {args.min_infer_eps:,.0f}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
