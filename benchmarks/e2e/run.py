"""End-to-end benchmark of the replication pipeline and its service.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload replicate-cold --seed 1
    python3 benchmarks/e2e/run.py --workload service-warm --seed 1 --trace 1

One invocation runs one workload in this fresh process, checks its
outputs against oracles outside the code under test, and prints every
metric with its unit and sample count.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run first measures half the time untraced
(for ``trace.overhead_share``), then half with every layer hooked, and
writes Chrome-format spans plus the per-layer table to ``--trace-dir``.

Everything the run writes (artifact caches, fleet sockets, traces)
stays under ``.e2e/`` in the checkout; the run's own scratch
directory is removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".e2e"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="where a traced run writes spans (default .e2e/trace/)")
    parser.add_argument("--output", help="also write the full result, with raw values, as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="scale 1, one round or one 2 s window, one set-up"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}; run it from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    SCRATCH.mkdir(exist_ok=True)
    # Fleets and temporary files land in the checkout, not /tmp.
    os.environ["TMPDIR"] = str(SCRATCH)
    tempfile.tempdir = str(SCRATCH)

    import batch
    import fleet

    workloads = {**batch.WORKLOADS, **fleet.WORKLOADS}
    args = parse_args(argv, workloads)
    cls = workloads[args.workload]
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        return execute(args, cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def execute(args, cls, workdir: str) -> int:
    import layers
    from measure import END_TO_END, Run

    seconds = 2.0 if args.smoke else args.seconds
    run = Run(args.workload, args.seed, seconds, args.smoke, bool(args.trace), workdir)
    workload = cls(run)
    layer_metrics = None
    try:
        workload.setup()
        if args.trace:
            layer_metrics = traced(run, workload, args)
        else:
            workload.measure(seconds, min_rounds=1 if args.smoke else 2)
        workload.verify()
    finally:
        workload.close()

    if layer_metrics is None:
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = run.metrics()
    else:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = layer_metrics
    raw = run.raw()
    report(run, metrics, units, raw)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.output:
        document = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            seconds=seconds,
            smoke=args.smoke,
            trace=args.trace,
            failures=run.failures,
            quality=run.quality,
            raw=raw,
            details={k: v for k, v in run.details.items() if k != "server_spans"},
        )
        with open(args.output, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def traced(run, workload, args) -> dict:
    """Half the time untraced, half with every layer hooked; returns the
    per-layer metrics and writes the spans and the table."""
    import layers
    from measure import throughput
    from repro.obs.export import trace_chrome_doc

    half = run.seconds / 2
    workload.measure(half, min_rounds=1)
    untraced_ops = throughput(run.rounds)
    mark = len(run.rounds)

    tracer = layers.Tracer()
    tracer.install()
    run.on_timed = lambda on: setattr(tracer, "recording", on)
    try:
        workload.begin_traced()
        workload.measure(half, min_rounds=1, traced=True)
        metrics = {name: 0.0 for name, _, _ in layers.PER_LAYER}
        summary = tracer.summary()
        metrics.update(workload.traced_metrics(summary))
    finally:
        run.on_timed = None
        tracer.remove()

    rounds = run.rounds[mark:]
    traced_ops = throughput(rounds)
    thread_seconds = sum(r.seconds for r in rounds) * workload.threads
    metrics["unattributed.share"] = layers.unattributed_share(summary, thread_seconds)
    metrics["trace.overhead_share"] = untraced_ops / traced_ops - 1.0
    metrics["calib_s"] = run.calib_s
    for problem in layers.coverage_failures(summary, workload.expected_spans, thread_seconds):
        run.check(False, f"trace coverage: {problem}")

    directory = Path(args.trace_dir or SCRATCH / "trace" / f"{run.workload}-seed{run.seed}")
    directory.mkdir(parents=True, exist_ok=True)
    spans = tracer.chrome_spans() + run.details.get("server_spans", [])
    with open(directory / "spans.json", "w", encoding="utf-8") as stream:
        json.dump(trace_chrome_doc(f"{run.workload}-seed{run.seed}", spans), stream)
    table = summary.table(thread_seconds)
    with open(directory / "layers.txt", "w", encoding="utf-8") as stream:
        stream.write("\n".join(table) + "\n")
    with open(directory / "layers.json", "w", encoding="utf-8") as stream:
        json.dump(metrics, stream, indent=1)
    print("\n".join(table))
    print(f"trace written to {directory}")
    return metrics


def report(run, metrics: dict, units: dict, raw: dict) -> None:
    """Human-readable lines before the JSON result."""
    print(
        f"workload {run.workload}  seed {run.seed}  rounds {len(run.rounds)}  "
        f"calib_s {raw['calib_s']:.4f} (reference {raw['calib_ref_s']})"
    )
    samples = raw["samples"]
    counts = {
        "setup_s": samples["setup_s"],
        "ops_per_s": samples["rounds"],
        "p50_ms": samples["operations"],
        "p90_ms": samples["operations"],
    }
    for name, unit in units.items():
        extra = ""
        if name in counts:
            extra = f"  n={counts[name]}"
        if name in raw and not isinstance(raw[name], list):
            extra += f"  raw {raw[name]:.6g}"
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit:<12}{extra}")
    for row in run.details.get("benchmarks", []):
        if "promised" in row:
            print(
                f"  {row['benchmark']:<11} mispredictions promised {row['promised']:>7} "
                f"achieved {row['achieved']:>7}  size x{row['modelled_size_factor']:.2f} modelled "
                f"x{row['real_size_factor']:.2f} real"
            )
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
