"""The observer: hierarchical timed spans plus named counters/gauges.

One :class:`Observer` per process holds everything the pipeline reports
about itself:

* **spans** — timed, nestable regions opened with
  :meth:`Observer.span` as a context manager.  A span is collected only
  while a trace (:class:`~repro.obs.tracing.ActiveTrace`) is active on
  the opening thread: a service request, a control-socket ``invoke``,
  or an experiment CLI run under ``--timings``/``--trace-out``.
  Nesting is tracked per thread (a thread-local stack) and each span
  carries its trace, span and parent ids plus its pid/tid.  With no
  trace active the observer hands out a shared no-op span, so
  instrumented code pays only one method call.
* **counters and gauges** — named numeric cells with a uniform
  ``add``/``set_gauge``/``counters``/``reset`` API.  Counters are
  always live and cheap: one lock acquisition per *call site*, never
  per trace event.
  Counters and gauges share one value namespace but carry different
  merge semantics: counters **sum** across workers, gauges are
  **last-write-wins** (a worker's ``sm.intra.best_score`` is a level,
  not a quantity — summing two 0.9 scores into 1.8 is nonsense), so
  the observer tracks which names were written via :meth:`set_gauge`.
* **histograms** — :meth:`observe` files a value into a mergeable
  log-bucketed :class:`~repro.obs.hist.Histogram` (~5% relative-error
  quantiles); worker histograms merge exactly like counters.
* **rates** — :meth:`mark` feeds a sliding-window
  :class:`~repro.obs.hist.RateWindow`; :meth:`rates` answers live
  events/sec gauges (req/s on ``/metrics``) that decay when traffic
  stops.

Names are dotted paths, ``<subsystem>.<detail>`` (``artifacts.cache.hits``,
``engine.events``, ``sm.intra.candidates``); ``reset(prefix=...)`` and
the exporters group on those dots.  Worker processes report their
observer's :meth:`snapshot` back to the parent, which folds it in with
:meth:`merge` — counters under a namespace prefix so per-process
semantics survive.  Their spans travel separately, as the span dicts of
the trace they joined (:meth:`~repro.obs.tracing.ActiveTrace.span_dicts`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Union

from .hist import Histogram, RateWindow, merge_histogram_maps
from .tracing import ActiveTrace, new_span_id

Number = Union[int, float]


@dataclass(frozen=True)
class ObsSnapshot:
    """A point-in-time copy of an observer's counters and histograms.

    ``counters`` includes gauge values (they share the namespace);
    ``gauges`` names which of them carry last-write-wins merge
    semantics.  ``hists`` maps name to a private :class:`Histogram`
    copy.
    """

    counters: Dict[str, Number]
    gauges: FrozenSet[str] = frozenset()
    hists: Dict[str, Histogram] = field(default_factory=dict)


class _NullSpan:
    """The shared no-op span handed out while no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    """A live span; use as a context manager (exception-safe)."""

    __slots__ = (
        "_observer",
        "name",
        "attrs",
        "_trace",
        "_start",
        "_depth",
        "_span_id",
        "_parent_id",
    )

    def __init__(
        self,
        observer: "Observer",
        name: str,
        attrs: Dict[str, Any],
        trace: ActiveTrace,
    ):
        self._observer = observer
        self.name = name
        self.attrs = attrs
        self._trace = trace

    def set(self, **attrs) -> "_Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = self._observer._stack()
        self._depth = len(stack)
        # Parent: the enclosing span on this thread, else the span the
        # trace was adopted under (a pool-thread hop), else the remote
        # caller's span (an HTTP/control/process hop).
        if stack:
            self._parent_id = stack[-1]._span_id
        else:
            self._parent_id = (
                self._observer._trace_parent() or self._trace.remote_parent_id
            )
        self._span_id = new_span_id()
        stack.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = perf_counter() - self._start
        stack = self._observer._stack()
        # Pop *this* span even if an intervening frame misbehaved, so
        # one leak cannot corrupt every later depth.  (Fast path: we
        # are the innermost span, the overwhelmingly common case.)
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            del stack[stack.index(self) :]
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        # A bare tuple: ~99% of service traces are dropped by
        # tail-sampling, so dict construction is deferred to
        # ``span_dicts()``, which only kept traces reach.  Field order
        # must match ``repro.obs.tracing.SPAN_TUPLE_KEYS``.
        trace = self._trace
        trace.add_span(
            (
                self.name,
                trace.trace_id,
                self._span_id,
                self._parent_id,
                self._start,
                duration,
                self._depth,
                trace.pid,
                threading.get_ident(),
                self.attrs,
            )
        )
        return False


class _TraceAdoption:
    """Scoped trace adoption for a worker thread (see ``adopt_trace``)."""

    __slots__ = ("_observer", "_trace", "_hint", "_saved")

    def __init__(
        self,
        observer: "Observer",
        trace: Optional[ActiveTrace],
        parent_hint: Optional[str],
    ) -> None:
        self._observer = observer
        self._trace = trace
        self._hint = parent_hint
        self._saved: tuple = (None, None)

    def __enter__(self) -> Optional[ActiveTrace]:
        local = self._observer._local
        self._saved = (
            getattr(local, "trace", None),
            getattr(local, "trace_parent", None),
        )
        if self._trace is not None:
            local.trace = self._trace
            local.trace_parent = self._hint
        return self._trace

    def __exit__(self, *exc_info) -> bool:
        local = self._observer._local
        local.trace, local.trace_parent = self._saved
        return False


class Observer:
    """Process-local spans, counters and gauges (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Number] = {}
        self._gauge_names: set = set()
        self._hists: Dict[str, Histogram] = {}
        self._rates: Dict[str, RateWindow] = {}
        self._local = threading.local()
        self._epoch = 0

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- trace context ----------------------------------------------------------
    #
    # At most one ActiveTrace per thread.  The service's request thread
    # starts one per HTTP request and the experiment CLI one per run;
    # pool threads and control-invoke handler threads *adopt* it, and
    # worker processes join it by id, so every span of one request or
    # run — across threads and processes — collects under one
    # trace_id.  Trace-context state is thread-local, so none of it
    # takes the observer lock.

    def current_trace(self) -> Optional[ActiveTrace]:
        """This thread's active trace, or ``None``."""
        return getattr(self._local, "trace", None)

    def _trace_parent(self) -> Optional[str]:
        """The span id top-level spans on this thread parent under."""
        return getattr(self._local, "trace_parent", None)

    def start_trace(
        self,
        trace_id: Optional[str] = None,
        remote_parent_id: Optional[str] = None,
    ) -> ActiveTrace:
        """Begin a trace on this thread (honouring inbound context).

        While a trace is active, :meth:`span` returns real spans that
        collect on the trace.  The span stack starts empty, so a
        process forked from a thread with open spans does not parent
        under spans it inherited.  Balance with :meth:`end_trace`.
        """
        trace = ActiveTrace(trace_id, remote_parent_id)
        self._local.trace = trace
        self._local.trace_parent = None
        self._local.stack = []
        return trace

    def end_trace(self) -> Optional[ActiveTrace]:
        """Detach and return this thread's active trace (``None`` if none)."""
        trace = getattr(self._local, "trace", None)
        self._local.trace = None
        self._local.trace_parent = None
        return trace

    def adopt_trace(
        self, trace: Optional[ActiveTrace], parent_hint: Optional[str] = None
    ) -> "_TraceAdoption":
        """Context manager: run a block under *trace* on this thread.

        *parent_hint* is the caller's innermost span id — top-level
        spans opened inside the block parent under it, keeping the tree
        connected across the thread hop.  ``trace=None`` is a no-op
        adoption, so call sites need no conditional.
        """
        return _TraceAdoption(self, trace, parent_hint)

    def current_span_id(self) -> Optional[str]:
        """The innermost open span id on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1]._span_id if stack else None

    def span(self, name: str, **attrs: Any):
        """Open a timed span; use as a context manager.

        Attributes identify the work (``benchmark="doduc"``,
        ``scale=2``); more can be attached mid-flight with
        :meth:`_Span.set`.  While no trace is active on this thread,
        this returns the shared no-op span.
        """
        trace = getattr(self._local, "trace", None)
        if trace is None:
            return NULL_SPAN
        # ``attrs`` is already a fresh dict owned by this call — hand it
        # over without copying.
        return _Span(self, name, attrs, trace)

    # -- counters and gauges -------------------------------------------------
    #
    # Concurrency contract (relied on by the service daemon, whose
    # request threads hammer one shared observer): every read-modify-
    # write of ``_counters``/``_hists``/``_rates`` happens under
    # ``self._lock``, so concurrent ``add``/``set_gauge``/``observe``/
    # ``mark``/``merge``/``snapshot`` calls never lose updates — N
    # threads adding M each always total exactly N*M
    # (tests/test_obs.py::TestConcurrency asserts this).

    def add(self, name: str, value: Number = 1) -> None:
        """Increment counter *name* (creating it at 0); thread-safe."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
            self._epoch += 1

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge *name* to *value* (last write wins).

        The name is remembered as a gauge so snapshots can tell
        exporters (and :meth:`merge`) that it is a level, not a total.
        """
        with self._lock:
            self._counters[name] = value
            self._gauge_names.add(name)
            self._epoch += 1

    # -- histograms and rates ------------------------------------------------

    def observe(self, name: str, value: Number) -> None:
        """File *value* into histogram *name* (creating it); thread-safe.

        Use for durations and sizes whose distribution matters
        (latency, scan time): a histogram answers p50/p95/p99 within
        ~5% where a summed counter only answers the mean.
        """
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = Histogram()
            hist.observe(value)
            self._epoch += 1

    def histogram(self, name: str) -> Optional[Histogram]:
        """A private copy of histogram *name*, or ``None``."""
        with self._lock:
            hist = self._hists.get(name)
            return None if hist is None else hist.copy()

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        """Private copies of the histograms (optionally prefix-filtered)."""
        with self._lock:
            return {
                name: hist.copy()
                for name, hist in self._hists.items()
                if name.startswith(prefix)
            }

    def mark(self, name: str, n: Number = 1) -> None:
        """Feed *n* events into the sliding-window rate *name*."""
        with self._lock:
            window = self._rates.get(name)
            if window is None:
                window = self._rates[name] = RateWindow()
            window.mark(n)
            self._epoch += 1

    def rate(self, name: str) -> float:
        """Live events/sec of rate *name* (0.0 when never marked)."""
        with self._lock:
            window = self._rates.get(name)
            return 0.0 if window is None else window.rate()

    def rates(self, prefix: str = "") -> Dict[str, float]:
        """Live events/sec per marked name (optionally prefix-filtered)."""
        with self._lock:
            return {
                name: window.rate()
                for name, window in self._rates.items()
                if name.startswith(prefix)
            }

    def counter(self, name: str, default: Number = 0) -> Number:
        with self._lock:
            return self._counters.get(name, default)

    def epoch(self) -> int:
        """Monotonic mutation sequence: bumps on every write.

        Two equal readings with no mutation in between mean every state
        read between them came from the *same* logical version — the
        torn-read detector the QA layer's merged-vs-per-worker snapshot
        comparisons rely on (``as_of`` in control-socket replies).
        """
        with self._lock:
            return self._epoch

    def counters(self, prefix: str = "") -> Dict[str, Number]:
        """A snapshot copy of the counters (optionally prefix-filtered)."""
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    # -- lifecycle -----------------------------------------------------------

    def reset(self, prefix: Optional[str] = None) -> None:
        """Clear state.

        With *prefix*, only counters, gauges, histograms and rates
        under that prefix are dropped, so one subsystem can be measured
        in isolation.  Without, everything goes.
        """
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._gauge_names.clear()
                self._hists.clear()
                self._rates.clear()
            else:
                for name in [n for n in self._counters if n.startswith(prefix)]:
                    del self._counters[name]
                    self._gauge_names.discard(name)
                for name in [n for n in self._hists if n.startswith(prefix)]:
                    del self._hists[name]
                for name in [n for n in self._rates if n.startswith(prefix)]:
                    del self._rates[name]
            self._epoch += 1

    def snapshot(self) -> ObsSnapshot:
        """Counters, gauge names and histograms, copied atomically."""
        with self._lock:
            return ObsSnapshot(
                dict(self._counters),
                frozenset(self._gauge_names),
                {name: hist.copy() for name, hist in self._hists.items()},
            )

    def merge(
        self,
        counters: Mapping[str, Number],
        counter_prefix: str = "",
        gauges: Iterable[str] = (),
        hists: Optional[Mapping[str, Histogram]] = None,
    ) -> None:
        """Fold another observer's snapshot in (worker processes).

        *counter_prefix* namespaces everything merged (e.g.
        ``"workers."``) so the receiving process's own per-process
        counters keep their meaning.  Names listed in *gauges* are **levels**,
        not totals: they overwrite (last write wins per namespaced
        name) instead of summing — two workers each reporting a best
        score of 0.9 must not merge into 1.8.  Histograms in *hists*
        merge bucket-wise (exact — see :mod:`repro.obs.hist`).
        """
        gauge_names = set(gauges)
        with self._lock:
            for name, value in counters.items():
                key = counter_prefix + name
                if name in gauge_names:
                    self._counters[key] = value
                    self._gauge_names.add(key)
                else:
                    self._counters[key] = self._counters.get(key, 0) + value
            if hists:
                merge_histogram_maps(self._hists, hists, counter_prefix)
            self._epoch += 1

    def merge_snapshot(self, snapshot: ObsSnapshot, counter_prefix: str = "") -> None:
        """:meth:`merge`, taking a whole :class:`ObsSnapshot`."""
        self.merge(
            snapshot.counters,
            counter_prefix=counter_prefix,
            gauges=snapshot.gauges,
            hists=snapshot.hists,
        )


def merge_snapshots(snapshots: Iterable[ObsSnapshot]) -> ObsSnapshot:
    """Fold many observer snapshots into one, in iteration order.

    The fleet-wide aggregation primitive: counters **sum**, gauges are
    **last-write-wins**, histograms merge **exactly** (bucket indices
    are process-independent — see :mod:`repro.obs.hist`), so quantiles
    computed from the merged snapshot equal quantiles over the
    concatenated per-worker streams.  Merging K snapshots shipped through
    the control socket must equal merging them in-process —
    ``tests/test_obs_fleet_merge.py`` holds this to the bit.
    """
    merged = Observer()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


#: The process-wide default observer every instrumented module reports to.
OBS = Observer()


def default_observer() -> Observer:
    """The process-wide observer (one per process; workers get their own)."""
    return OBS
