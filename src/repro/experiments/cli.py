"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.experiments table1 [--scale N] [--names a,b,...]
    python -m repro.experiments table1 --format json
    python -m repro.experiments figures [--csv-dir results/]
    python -m repro.experiments all [--jobs N] [--timings] [--format csv]
    python -m repro.experiments cache [stats|clear]

Targets come from the experiment registry
(:mod:`repro.experiments.registry`); every one flows through a single
output stage selected by ``--format``: ``text`` (the paper-style tables,
byte-identical to previous releases), ``json`` (title/columns/rows/
cells/raw data per table) or ``csv``.

Benchmark artifact generation (the expensive interpreter passes) is
fanned out across ``--jobs`` worker processes that fill the shared
on-disk artifact cache before any table renders; a warm cache makes
every target a pure replay.

Observability: ``--timings`` and ``--trace-out`` run the whole batch
as one trace (:mod:`repro.obs`) whose top-level spans are
``artifacts.prewarm`` and ``experiment:<target>``; prewarm worker
processes join it.  ``--timings`` prints the stage summary — that
trace's span aggregates, engine throughput, cache counters — on stderr
*after* all table output, so stdout stays machine-parseable under
``--format json|csv``; ``--trace-out FILE`` writes the trace and the
final counters as Chrome ``trace_event`` JSON, loadable in
``chrome://tracing`` or https://ui.perfetto.dev.  ``--snapshot-out``
saves the final observer snapshot as JSON (feed it to
``python -m repro obs-export``) and ``--metrics-out`` writes the same
data directly as Prometheus text exposition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from ..obs import (
    OBS,
    render_prometheus,
    summary_lines,
    trace_chrome_doc,
    write_snapshot,
)
from ..workloads import BENCHMARK_NAMES, artifacts as artifact_store
from ..workloads.artifacts import generate_artifacts
from . import crosseval
from .registry import RunContext, all_experiments, get_experiment
from .report import Table, tables_to_csv, tables_to_json

def _parse_names(parser: argparse.ArgumentParser, raw: Optional[str]) -> Optional[List[str]]:
    """Split and validate ``--names`` against the benchmark registry."""
    if not raw:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in BENCHMARK_NAMES]
    if unknown:
        parser.error(
            f"unknown benchmark name(s): {', '.join(unknown)}; "
            f"valid choices: {', '.join(BENCHMARK_NAMES)}"
        )
    return names or None


def _cache_summary() -> str:
    """This process's artifact-cache hits, misses and interpreter runs."""
    counters = OBS.counters("artifacts.")
    return (
        f"{counters.get('artifacts.cache.hits', 0)} hit(s), "
        f"{counters.get('artifacts.cache.misses', 0)} miss(es), "
        f"{counters.get('artifacts.interpreter.runs', 0)} interpreter run(s)"
    )


def _run_cache_command(action: str) -> int:
    directory = artifact_store.cache_dir()
    if action == "clear":
        removed = artifact_store.clear_disk_cache()
        artifact_store.clear_memory_cache()
        print(f"removed {removed} artifact file(s) from {directory or '(disabled)'}")
        return 0
    entries = artifact_store.disk_cache_entries()
    print(f"cache directory: {directory or '(disabled)'}")
    print(f"entries: {len(entries)} file(s), {artifact_store.disk_cache_bytes()} bytes")
    for entry in entries:
        print(f"  {entry}")
    print(f"this process: {_cache_summary()}")
    return 0


def _all_targets() -> List[str]:
    """Every registered target: single-table first, multi-table last.

    Matches the historical ``all`` ordering (the simple tables sorted,
    then ``figures``), so text output stays byte-identical.
    """
    experiments = all_experiments()
    return sorted(n for n in experiments if not experiments[n].multi) + sorted(
        n for n in experiments if experiments[n].multi
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(all_experiments()) + ["all", "cache"],
        help="which experiment to run (or 'cache' to manage the artifact cache)",
    )
    parser.add_argument(
        "action",
        nargs="?",
        choices=["stats", "clear"],
        help="cache subcommand action (default: stats)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=1,
        help="trace scale (≈ scale × 10k branches per benchmark)",
    )
    parser.add_argument(
        "--names",
        type=str,
        default=None,
        help="comma-separated benchmark subset",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "csv"],
        default="text",
        help="output format for the rendered tables (default: text)",
    )
    parser.add_argument(
        "--csv-dir",
        type=str,
        default=None,
        help="write figure curves as CSV files into this directory "
        "(figures/all targets only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for artifact generation "
        "(default: the machine's CPU count)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="report the observability summary (per-stage wall-clock "
        "timings, engine throughput, cache counters) on stderr after "
        "all table output",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the run's trace and counters as Chrome trace_event "
        "JSON to FILE (chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--snapshot-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the final observer snapshot (counters, gauges, "
        "histograms) as JSON to FILE — the input format of "
        "'python -m repro obs-export'",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the final observer snapshot as Prometheus text "
        "exposition to FILE (what GET /metrics would have served)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "cache":
        return _run_cache_command(args.action or "stats")
    if args.action is not None:
        parser.error(
            f"'{args.action}' is only valid after the 'cache' subcommand"
        )
    if args.csv_dir is not None and args.experiment not in ("figures", "all"):
        parser.error(
            f"--csv-dir has no effect on target {args.experiment!r}; "
            "it applies to 'figures' (and 'all')"
        )
    names = _parse_names(parser, args.names)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        parser.error("--jobs must be >= 1")

    targets = _all_targets() if args.experiment == "all" else [args.experiment]

    # Spans are collected only under a trace: without --timings/
    # --trace-out the observer keeps just its (cheap, always-on)
    # counters and the run's stdout/stderr match previous releases byte
    # for byte.
    trace = OBS.start_trace() if args.timings or args.trace_out else None

    with OBS.span("artifacts.prewarm", jobs=jobs, scale=args.scale):
        generate_artifacts(
            crosseval.prewarm_specs(targets, names or BENCHMARK_NAMES, args.scale),
            jobs=jobs,
        )

    # Single output stage: text streams per target (byte-identical to the
    # historical layout); json/csv collect every table and emit one
    # document at the end.
    collected: List[Table] = []
    for target in targets:
        experiment = get_experiment(target)
        ctx = RunContext(
            scale=args.scale,
            names=tuple(names) if names is not None else None,
            jobs=jobs,
            output=args.format,
            options={"csv_dir": args.csv_dir} if target == "figures" else {},
        )
        with OBS.span(
            f"experiment:{target}", scale=args.scale, format=args.format
        ) as span:
            events_before = OBS.counter("engine.events")
            started = time.perf_counter()
            tables = experiment.tables(ctx)
            elapsed = time.perf_counter() - started
            span.set(
                seconds=round(elapsed, 6),
                tables=len(tables),
                engine_events=OBS.counter("engine.events") - events_before,
            )
        if args.format == "text":
            for table in tables:
                print(table.render())
                print()
        else:
            collected.extend(tables)

    if args.format == "json" and collected:
        print(tables_to_json(collected))
    elif args.format == "csv" and collected:
        print(tables_to_csv(collected), end="")

    # Telemetry is emitted only after every table has been written, so
    # stdout stays machine-parseable and stderr never interleaves with
    # partially rendered output.
    OBS.end_trace()
    spans = trace.span_dicts() if trace is not None else []
    snapshot = OBS.snapshot()
    if args.trace_out:
        doc = trace_chrome_doc(trace.trace_id, spans, snapshot.counters)
        with open(args.trace_out, "w") as stream:
            json.dump(doc, stream, indent=1)
            stream.write("\n")
    if args.snapshot_out:
        write_snapshot(args.snapshot_out, snapshot)
    if args.metrics_out:
        with open(args.metrics_out, "w") as stream:
            stream.write(render_prometheus(snapshot))
    if args.timings:
        counters = snapshot.counters
        for line in summary_lines(snapshot, spans):
            print(line, file=sys.stderr)
        print(
            f"[timings] cache: {_cache_summary()} "
            f"({counters.get('artifacts.interpreter.seconds', 0.0):.2f}s interp, "
            f"{counters.get('artifacts.cache.load_seconds', 0.0):.2f}s load)",
            file=sys.stderr,
        )
        events = counters.get("engine.events", 0)
        if events:
            seconds = counters.get("engine.seconds", 0.0)
            rate = events / seconds if seconds else float("inf")
            print(
                f"[timings] engine: {events} event(s), "
                f"{counters.get('engine.batch_predictors', 0)} batch + "
                f"{counters.get('engine.closed_form_predictors', 0)} "
                f"closed-form result(s), {rate:,.0f} events/s",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
