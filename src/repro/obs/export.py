"""Exporters for observer snapshots and traces.

* :func:`summary_lines` — the human-readable stage summary the CLI
  prints on stderr under ``--timings`` (a trace's span aggregates by
  name, then every counter grouped by subsystem);
* :func:`snapshot_to_dict` / JSON — the machine-readable counters,
  gauges and histograms;
* :func:`trace_chrome_doc` — one trace in Chrome ``trace_event``
  format, loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev: spans as complete (``"ph": "X"``) events
  with their attributes and ids as ``args``, optional counters as
  counter (``"ph": "C"``) events stamped at the end of the trace;
* :func:`format_span_tree` — one trace as an indented text tree.

Spans everywhere are span dicts, the
:meth:`~repro.obs.tracing.ActiveTrace.span_dicts` wire form.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .core import Number, ObsSnapshot
from .hist import Histogram

#: Schema marker for the JSON/Chrome exports.
TRACE_METADATA = {"producer": "repro.obs"}


def _aggregate_spans(
    spans: Iterable[Mapping[str, Any]]
) -> List[Tuple[str, int, float]]:
    """``(name, call count, total seconds)`` per span name, first-seen order."""
    totals: Dict[str, List[float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += span["duration"]
    return [(name, int(count), seconds) for name, (count, seconds) in totals.items()]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def summary_lines(
    snapshot: ObsSnapshot,
    spans: Iterable[Mapping[str, Any]] = (),
    prefix: str = "[timings]",
) -> List[str]:
    """The stage summary: span aggregates, then counters by subsystem."""
    lines: List[str] = []
    aggregates = _aggregate_spans(spans)
    if aggregates:
        lines.append(f"{prefix} spans (name, calls, total seconds):")
        width = max(len(name) for name, _, _ in aggregates)
        for name, count, seconds in aggregates:
            lines.append(f"{prefix}   {name.ljust(width)}  {count:>6}x  {seconds:8.3f}s")
    if snapshot.counters:
        lines.append(f"{prefix} counters:")
        width = max(len(name) for name in snapshot.counters)
        previous_group = None
        for name in sorted(snapshot.counters):
            group = name.split(".", 1)[0]
            if previous_group is not None and group != previous_group:
                lines.append(f"{prefix}   --")
            previous_group = group
            lines.append(
                f"{prefix}   {name.ljust(width)}  "
                f"{_format_value(snapshot.counters[name])}"
            )
    if snapshot.hists:
        lines.append(f"{prefix} histograms (name, count, p50/p95/p99):")
        width = max(len(name) for name in snapshot.hists)
        for name in sorted(snapshot.hists):
            hist = snapshot.hists[name]
            lines.append(
                f"{prefix}   {name.ljust(width)}  {hist.count:>8}x  "
                f"{hist.quantile(0.50):.6f} / {hist.quantile(0.95):.6f} / "
                f"{hist.quantile(0.99):.6f}"
            )
    if not lines:
        lines.append(f"{prefix} (no spans or counters recorded)")
    return lines


def snapshot_to_dict(snapshot: ObsSnapshot) -> Dict[str, Any]:
    """JSON-shaped view: counters, gauges, histograms."""
    return {
        "metadata": dict(TRACE_METADATA),
        "counters": dict(snapshot.counters),
        "gauges": sorted(snapshot.gauges),
        "histograms": {
            name: hist.to_dict() for name, hist in sorted(snapshot.hists.items())
        },
    }


def snapshot_to_json(snapshot: ObsSnapshot, indent: int = 2) -> str:
    return json.dumps(snapshot_to_dict(snapshot), indent=indent, default=str)


def snapshot_from_dict(payload: Mapping[str, Any]) -> ObsSnapshot:
    """Rebuild an :class:`ObsSnapshot` from :func:`snapshot_to_dict` output.

    The inverse used by ``python -m repro obs-export``, which turns a
    saved CLI-run snapshot into Prometheus text after the fact.
    """
    hists = {
        str(name): Histogram.from_dict(doc)
        for name, doc in dict(payload.get("histograms", {})).items()
    }
    return ObsSnapshot(
        dict(payload.get("counters", {})),
        frozenset(payload.get("gauges", [])),
        hists,
    )


def write_snapshot(path: str, snapshot: ObsSnapshot) -> None:
    """Serialise :func:`snapshot_to_json` to *path*."""
    with open(path, "w") as stream:
        stream.write(snapshot_to_json(snapshot))
        stream.write("\n")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- stitched distributed traces ---------------------------------------------


def trace_chrome_doc(
    trace_id: str,
    spans: List[Mapping[str, Any]],
    counters: Optional[Mapping[str, Number]] = None,
) -> Dict[str, Any]:
    """One stitched trace as a Chrome/Perfetto ``trace_event`` doc.

    *spans* are span dicts collected from every process that joined the
    trace — ``perf_counter`` is system-wide monotonic on the platforms
    we target, so per-process start times line up on one timeline.
    Timestamps are microseconds relative to the earliest span.  Span
    and parent ids ride in ``args`` so the causal tree survives the
    export.  Each of *counters* becomes one counter event, stamped
    after the last span with its final value.
    """
    events: List[Dict[str, Any]] = []
    epoch = min((float(span.get("start", 0.0)) for span in spans), default=0.0)
    end_ts = 0
    for span in spans:
        args = {key: _jsonable(value) for key, value in dict(span.get("attrs", {})).items()}
        args["trace_id"] = trace_id
        args["span_id"] = span.get("span_id")
        args["parent_id"] = span.get("parent_id")
        name = str(span.get("name", "?"))
        ts = int((float(span.get("start", 0.0)) - epoch) * 1_000_000)
        dur = max(int(float(span.get("duration", 0.0)) * 1_000_000), 1)
        end_ts = max(end_ts, ts + dur)
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": int(span.get("pid", 0)),
                "tid": int(span.get("tid", 0)),
                "args": args,
            }
        )
    for name, value in sorted((counters or {}).items()):
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "C",
                "ts": end_ts,
                "pid": 0,
                "tid": 0,
                "args": {"value": value},
            }
        )
    metadata = dict(TRACE_METADATA)
    metadata["trace_id"] = trace_id
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


def format_span_tree(spans: List[Mapping[str, Any]]) -> List[str]:
    """A stitched span set as an indented text tree (one line per span).

    Children attach via ``parent_id``; spans whose parent is absent
    from the set (the remote caller's span on a partially-stitched
    trace) render as roots.  Siblings order by start time.
    """
    by_id: Dict[str, Mapping[str, Any]] = {
        span["span_id"]: span for span in spans if span.get("span_id")
    }
    children: Dict[Any, List[Mapping[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        key = parent if parent in by_id else None
        children.setdefault(key, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: float(span.get("start", 0.0)))

    lines: List[str] = []

    def walk(span: Mapping[str, Any], depth: int) -> None:
        duration_ms = float(span.get("duration", 0.0)) * 1e3
        detail = f"pid={span.get('pid')}"
        error = dict(span.get("attrs", {})).get("error")
        if error:
            detail += f" error={error}"
        lines.append(
            f"{'  ' * depth}{span.get('name')}  {duration_ms:.1f}ms  ({detail})"
        )
        span_id = span.get("span_id")
        if span_id:  # never recurse through the None root bucket
            for child in children.get(span_id, []):
                walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return lines
