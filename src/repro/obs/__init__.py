"""Pipeline-wide observability: spans, counters/gauges, histograms,
rates, distributed tracing, trace export and Prometheus exposition.

Instrumented modules report to the process-wide default observer::

    from ..obs import OBS

    OBS.add("artifacts.cache.hits")
    OBS.observe("service.latency_seconds", elapsed)   # histogram
    OBS.mark("service.requests")                      # sliding-window rate
    with OBS.span("workload.run", benchmark=name, scale=scale):
        ...

Spans are collected by an :class:`~repro.obs.tracing.ActiveTrace`:
the service daemon runs every request under one, feeding the
always-on :class:`~repro.obs.flight.FlightRecorder`, and the experiment
CLI runs a whole batch run under one when ``--timings`` or
``--trace-out`` is given.  Counters, histograms and rates are always
live.  See :mod:`repro.obs.core` for the model,
:mod:`repro.obs.tracing` for trace-context propagation,
:mod:`repro.obs.flight` for tail-sampled request traces,
:mod:`repro.obs.profiler` for the sampling wall-clock profiler,
:mod:`repro.obs.hist` for the log-bucketed histogram and rate window,
:mod:`repro.obs.export` for the human-readable summary, JSON and Chrome
``trace_event`` exporters, and :mod:`repro.obs.promtext` for the
Prometheus text exposition served at ``GET /metrics``.
"""

from .core import (
    NULL_SPAN,
    OBS,
    Observer,
    ObsSnapshot,
    default_observer,
    merge_snapshots,
)
from .export import (
    format_span_tree,
    snapshot_from_dict,
    snapshot_to_dict,
    snapshot_to_json,
    summary_lines,
    trace_chrome_doc,
    write_snapshot,
)
from .flight import FlightRecorder, sample_decision
from .hist import GROWTH, Histogram, RateWindow, quantile_from_counts
from .profiler import ProfilerBusy, StackSampler, collapsed_stacks, profile_collapsed
from .promtext import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    parse_exemplars,
    parse_exposition,
    render_prometheus,
    validate_exposition,
)
from .tracing import (
    ActiveTrace,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)

__all__ = [
    "GROWTH",
    "ActiveTrace",
    "FlightRecorder",
    "Histogram",
    "NULL_SPAN",
    "OBS",
    "Observer",
    "ObsSnapshot",
    "PROMETHEUS_CONTENT_TYPE",
    "ProfilerBusy",
    "RateWindow",
    "StackSampler",
    "collapsed_stacks",
    "default_observer",
    "format_span_tree",
    "format_traceparent",
    "merge_snapshots",
    "new_span_id",
    "new_trace_id",
    "parse_exemplars",
    "parse_exposition",
    "parse_traceparent",
    "profile_collapsed",
    "quantile_from_counts",
    "render_prometheus",
    "sample_decision",
    "snapshot_from_dict",
    "snapshot_to_dict",
    "snapshot_to_json",
    "summary_lines",
    "trace_chrome_doc",
    "validate_exposition",
    "write_snapshot",
]
