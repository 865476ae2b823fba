"""The traced run: spans around each layer's public entry points.

:class:`Tracer` replaces each hooked attribute — a function at the
site the caller imports it from, or a method on its class — with a
wrapper that records a span (name, start, end, parent) on a per-thread
stack.  ``src/`` is not modified: the wrappers are installed from here
and removed when the traced phase ends.  Spans are recorded only while
a round or window is being timed, so set-up and oracle checks stay out
of the per-layer table.

A layer's *self* time is its spans' duration minus the part covered by
child spans; ``unattributed.share`` is the share of timed thread-time
covered by no span at all.
"""

from __future__ import annotations

import importlib
import inspect
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("interp.runs", "count", "lower"),
    ("interp.self_s", "s", "lower"),
    ("interp.steps_per_s", "1/s", "higher"),
    ("artifacts.store_s", "s", "lower"),
    ("artifacts.load_s", "s", "lower"),
    ("artifacts.bytes_written", "bytes", "lower"),
    ("artifacts.bytes_read", "bytes", "lower"),
    ("artifacts.hits", "count", "higher"),
    ("artifacts.misses", "count", "lower"),
    ("profiling.self_s", "s", "lower"),
    ("profiling.encode_mb_per_s", "MB/s", "higher"),
    ("profiling.decode_events_per_s", "1/s", "higher"),
    ("profiling.build_events_per_s", "1/s", "higher"),
    ("sm.search_s", "s", "lower"),
    ("sm.searches", "count", "lower"),
    ("sm.searches_per_s", "1/s", "higher"),
    ("sm.intra.search_s", "s", "lower"),
    ("sm.intra.searches", "count", "lower"),
    ("sm.intra.searches_per_s", "1/s", "higher"),
    ("sm.loop_exit.search_s", "s", "lower"),
    ("sm.loop_exit.searches", "count", "lower"),
    ("sm.loop_exit.searches_per_s", "1/s", "higher"),
    ("sm.correlated.search_s", "s", "lower"),
    ("sm.correlated.searches", "count", "lower"),
    ("sm.correlated.searches_per_s", "1/s", "higher"),
    ("sm.minimize_s", "s", "lower"),
    ("planner.self_s", "s", "lower"),
    ("planner.options_kept", "count", "lower"),
    ("tradeoff.self_s", "s", "lower"),
    ("tradeoff.upgrades", "count", "lower"),
    ("tradeoff.size_model_ratio", "ratio", "lower"),
    ("apply.self_s", "s", "lower"),
    ("apply.transforms", "count", "lower"),
    ("apply.loop_analysis_s", "s", "lower"),
    ("apply.validate_s", "s", "lower"),
    ("apply.instrs_out_per_s", "1/s", "higher"),
    ("measure.self_s", "s", "lower"),
    ("annotate.promise_gap_pct", "%", "lower"),
    ("icache.self_s", "s", "lower"),
    ("icache.fetches_per_s", "1/s", "higher"),
    ("icache.est_cpi", "cycles/instr", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("learn.self_s", "s", "lower"),
    ("learn.train_events_per_s", "1/s", "higher"),
    ("service.server_p50_ms", "ms", "lower"),
    ("service.client_overhead_ms", "ms", "lower"),
    ("service.cpu_ms_per_req", "ms", "lower"),
    ("service.proxied_share", "ratio", "lower"),
    ("service.lru_hit_share", "ratio", "higher"),
    ("service.coalesce_hits", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.traces_sampled", "count", "higher"),
    ("service.self_ms.request", "ms", "lower"),
    ("service.self_ms.invoke", "ms", "lower"),
    ("service.self_ms.pool", "ms", "lower"),
    ("service.self_ms.workload_run", "ms", "lower"),
    ("service.self_ms.profiling_build", "ms", "lower"),
    ("service.self_ms.replication_plan", "ms", "lower"),
    ("service.self_ms.sm_search", "ms", "lower"),
    ("service.self_ms.replication_tradeoff", "ms", "lower"),
    ("unattributed.share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("calib_s", "s", "lower"),
)

#: Most of a run's wall time must sit inside some layer span.
MAX_UNATTRIBUTED_SHARE = 0.10


def _len_result(args, kwargs, result) -> float:
    return len(result)


def _steps(args, kwargs, result) -> float:
    return result.steps


def _trace_events(args, kwargs, result) -> float:
    return len(args[1])  # ProfileData.from_trace(cls, trace, ...)


def _options_kept(args, kwargs, result) -> float:
    return sum(len(plan.options) for plan in args[0].plans.values())


def _upgrades(args, kwargs, result) -> float:
    return len(result) - 1


def _size_after(args, kwargs, result) -> float:
    return result.size_after


def _events(args, kwargs, result) -> float:
    return result.events


def _accesses(args, kwargs, result) -> float:
    return result.accesses


def _predictor_events(args, kwargs, result) -> float:
    return len(args[0]) * len(args[1])


def _train_events(args, kwargs, result) -> float:
    from repro.learn.train import DEFAULT_SPLIT, training_cut

    split = args[2] if len(args) > 2 else kwargs.get("split", DEFAULT_SPLIT)
    return training_cut(args[0].n_events, split)


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point.

    ``owner`` is a module path, or ``module:Class`` for a method; the
    benchmark calls every hooked function through that owner, so the
    wrapper sees exactly the calls the workload makes.
    """

    owner: str
    attribute: str
    span: str
    layer: str
    work: Optional[Callable] = None


HOOKS = (
    Hook("repro.interp.machine:Machine", "run", "interp.run", "interp", _steps),
    Hook("repro.workloads.artifacts", "get_artifacts", "artifacts.get", "workloads.artifacts"),
    Hook("repro.workloads.artifacts", "trace_to_bytes", "profiling.encode", "profiling", _len_result),
    Hook("repro.workloads.artifacts", "trace_from_bytes", "profiling.decode", "profiling", _len_result),
    Hook("repro.workloads", "get_profile", "profiling.get_profile", "profiling"),
    Hook("repro.profiling:ProfileData", "from_trace", "profiling.from_trace", "profiling", _trace_events),
    Hook("repro.replication.planner", "best_intra_machine", "sm.intra", "statemachines"),
    Hook("repro.replication.planner", "best_loop_exit_machine", "sm.loop_exit", "statemachines"),
    Hook("repro.replication.planner", "correlated_machine_options", "sm.correlated", "statemachines"),
    Hook("repro.replication.planner", "minimize_machine", "sm.minimize", "statemachines"),
    Hook("repro.replication:ReplicationPlanner", "__init__", "planner.init", "replication.planner", _options_kept),
    Hook("repro.replication", "tradeoff_curve", "tradeoff.curve", "replication.tradeoff", _upgrades),
    Hook("repro.replication", "apply_replication", "apply.replication", "replication.apply", _size_after),
    Hook("repro.replication.apply", "replicate_loop_branch", "apply.loop_branch", "replication.apply"),
    Hook("repro.replication.apply", "duplicate_correlated_branch", "apply.correlated_branch", "replication.apply"),
    Hook("repro.replication.apply", "validate_program", "apply.validate", "replication.apply"),
    Hook("repro.replication.apply", "LoopForest", "cfg.loop_forest", "cfg"),
    Hook("repro.cfg:CFG", "from_function", "cfg.from_function", "cfg"),
    Hook("repro.replication", "measure_annotated", "annotate.measure", "replication.annotate", _events),
    Hook("repro.icache", "simulate_icache", "icache.simulate", "icache", _accesses),
    Hook("repro.predictors", "evaluate_many", "engine.evaluate_many", "predictors", _predictor_events),
    Hook("repro.learn", "fit", "learn.fit", "learn", _train_events),
    Hook("repro.service.client:ServiceClient", "request_raw", "service.client", "service"),
)

HOOKS_BY_SPAN = {hook.span: hook for hook in HOOKS}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Installs the hooks and collects spans per thread."""

    def __init__(self, hooks: Iterable[Hook] = HOOKS) -> None:
        self.hooks = tuple(hooks)
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one span list per thread: [span, start, end, parent, work]
        self.threads: List[Tuple[int, List[list]]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        for hook in self.hooks:
            owner = _resolve(hook.owner)
            static = inspect.getattr_static(owner, hook.attribute)
            if isinstance(static, classmethod):
                replacement = classmethod(self._wrap(hook, static.__func__))
            else:
                replacement = self._wrap(hook, getattr(owner, hook.attribute))
            self._saved.append((owner, hook.attribute, static))
            setattr(owner, hook.attribute, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _spans(self) -> List[list]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self.threads.append((threading.get_ident(), spans))
        return spans

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        tracer = self
        work = hook.work

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            spans = tracer._spans()
            stack = tracer._local.stack
            record = [hook.span, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                record[4] = work(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", hook.attribute)
        wrapper.__wrapped__ = original
        return wrapper

    # -- analysis -------------------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.threads)

    def chrome_spans(self) -> List[dict]:
        """Spans as dicts in the shape :func:`repro.obs.export.trace_chrome_doc` reads."""
        pid = os.getpid()
        out = []
        for tid, spans in self.threads:
            for index, (name, start, end, parent, work) in enumerate(spans):
                out.append(
                    {
                        "name": name,
                        "start": start,
                        "duration": end - start,
                        "pid": pid,
                        "tid": tid,
                        "span_id": f"{tid:x}.{index}",
                        "parent_id": f"{tid:x}.{parent}" if parent >= 0 else None,
                        "attrs": {"layer": HOOKS_BY_SPAN[name].layer, "work": work},
                    }
                )
        return out


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


class SpanSummary:
    """Per span name: calls, inclusive and self seconds, work units."""

    def __init__(self, threads) -> None:
        self.by_name: Dict[str, NameTotals] = defaultdict(NameTotals)
        #: self seconds keyed by (span name, parent span name)
        self.by_parent: Dict[Tuple[str, str], float] = defaultdict(float)
        #: self seconds of spans with at least one direct child of a name
        self.self_with_child: Dict[Tuple[str, str], float] = defaultdict(float)
        self.root_s = 0.0
        for _, spans in threads:
            covered = [0.0] * len(spans)
            child_names: Dict[int, set] = defaultdict(set)
            for name, start, end, parent, work in spans:
                if parent >= 0:
                    covered[parent] += end - start
                    child_names[parent].add(name)
                else:
                    self.root_s += end - start
            for index, (name, start, end, parent, work) in enumerate(spans):
                totals = self.by_name[name]
                own = end - start - covered[index]
                totals.calls += 1
                totals.total_s += end - start
                totals.self_s += own
                totals.work += work
                parent_name = spans[parent][0] if parent >= 0 else ""
                self.by_parent[(name, parent_name)] += own
                for child in child_names.get(index, ()):
                    self.self_with_child[(name, child)] += own

    def get(self, name: str) -> NameTotals:
        return self.by_name.get(name, NameTotals())

    def layer_self_s(self) -> Dict[str, float]:
        layers: Dict[str, float] = defaultdict(float)
        for name, totals in self.by_name.items():
            layers[HOOKS_BY_SPAN[name].layer] += totals.self_s
        return dict(layers)

    def fired(self) -> set:
        return set(self.by_name)

    def table(self, thread_seconds: float) -> List[str]:
        """Human-readable per-span table, heaviest self time first."""
        lines = [
            f"{'span':<26}{'layer':<22}{'calls':>8}{'total s':>10}{'self s':>10}{'self %':>8}"
        ]
        for name, totals in sorted(self.by_name.items(), key=lambda kv: -kv[1].self_s):
            share = 100 * totals.self_s / thread_seconds if thread_seconds else 0.0
            lines.append(
                f"{name:<26}{HOOKS_BY_SPAN[name].layer:<22}{totals.calls:>8}"
                f"{totals.total_s:>10.3f}{totals.self_s:>10.3f}{share:>8.1f}"
            )
        unattributed = max(0.0, thread_seconds - self.root_s)
        share = 100 * unattributed / thread_seconds if thread_seconds else 0.0
        lines.append(f"{'(unattributed)':<26}{'':<22}{'':>8}{'':>10}{unattributed:>10.3f}{share:>8.1f}")
        return lines


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def batch_layer_metrics(summary: SpanSummary, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of the in-process pipeline layers.

    *counters* are deltas of the process observer's counters over the
    traced phase (the artifact store and planner count there already).
    """
    metrics: Dict[str, float] = {}
    interp = summary.get("interp.run")
    metrics["interp.runs"] = interp.calls
    metrics["interp.self_s"] = interp.self_s
    metrics["interp.steps_per_s"] = _rate(interp.work, interp.self_s)

    # get_artifacts minus nested interpreter and codec time: a call that
    # ran the interpreter took the store path, any other the load path.
    store_s = summary.self_with_child.get(("artifacts.get", "interp.run"), 0.0)
    metrics["artifacts.store_s"] = store_s
    metrics["artifacts.load_s"] = summary.get("artifacts.get").self_s - store_s
    metrics["artifacts.bytes_written"] = counters.get("artifacts.cache.bytes_written", 0)
    metrics["artifacts.bytes_read"] = counters.get("artifacts.cache.bytes_read", 0)
    metrics["artifacts.hits"] = counters.get("artifacts.cache.hits", 0)
    metrics["artifacts.misses"] = counters.get("artifacts.cache.misses", 0)

    encode = summary.get("profiling.encode")
    decode = summary.get("profiling.decode")
    build = summary.get("profiling.from_trace")
    metrics["profiling.self_s"] = summary.layer_self_s().get("profiling", 0.0)
    metrics["profiling.encode_mb_per_s"] = _rate(encode.work / 1e6, encode.total_s)
    metrics["profiling.decode_events_per_s"] = _rate(decode.work, decode.total_s)
    metrics["profiling.build_events_per_s"] = _rate(build.work, build.total_s)

    searches = ("intra", "loop_exit", "correlated")
    metrics["sm.search_s"] = sum(summary.get(f"sm.{kind}").total_s for kind in searches)
    metrics["sm.searches"] = sum(summary.get(f"sm.{kind}").calls for kind in searches)
    metrics["sm.searches_per_s"] = _rate(metrics["sm.searches"], metrics["sm.search_s"])
    for kind in searches:
        totals = summary.get(f"sm.{kind}")
        metrics[f"sm.{kind}.search_s"] = totals.total_s
        metrics[f"sm.{kind}.searches"] = totals.calls
        metrics[f"sm.{kind}.searches_per_s"] = _rate(totals.calls, totals.total_s)
    metrics["sm.minimize_s"] = summary.get("sm.minimize").total_s

    planner = summary.get("planner.init")
    metrics["planner.self_s"] = planner.self_s
    metrics["planner.options_kept"] = planner.work
    tradeoff = summary.get("tradeoff.curve")
    metrics["tradeoff.self_s"] = tradeoff.self_s
    metrics["tradeoff.upgrades"] = tradeoff.work

    apply_spans = ("apply.replication", "apply.loop_branch", "apply.correlated_branch")
    apply_total = summary.get("apply.replication")
    metrics["apply.self_s"] = sum(summary.get(name).self_s for name in apply_spans)
    metrics["apply.transforms"] = sum(summary.get(name).calls for name in apply_spans[1:])
    metrics["apply.loop_analysis_s"] = sum(
        seconds
        for (name, parent), seconds in summary.by_parent.items()
        if name.startswith("cfg.") and parent in apply_spans
    )
    metrics["apply.validate_s"] = summary.get("apply.validate").total_s
    metrics["apply.instrs_out_per_s"] = _rate(apply_total.work, apply_total.total_s)

    metrics["measure.self_s"] = summary.get("annotate.measure").self_s
    icache = summary.get("icache.simulate")
    metrics["icache.self_s"] = icache.self_s
    metrics["icache.fetches_per_s"] = _rate(icache.work, icache.total_s)
    engine = summary.get("engine.evaluate_many")
    metrics["engine.self_s"] = engine.self_s
    metrics["engine.events_per_s"] = _rate(engine.work, engine.total_s)
    learn = summary.get("learn.fit")
    metrics["learn.self_s"] = learn.self_s
    metrics["learn.train_events_per_s"] = _rate(learn.work, learn.total_s)
    return metrics


def coverage_failures(
    summary: SpanSummary, expected: Iterable[str], thread_seconds: float
) -> List[str]:
    """Why the traced run cannot be trusted, if it cannot: a hooked
    entry point the workload must reach never fired (a renamed import
    in ``src/`` would otherwise silently zero a layer), or too much
    time fell outside every span."""
    problems = [
        f"wrapper {name} never fired" for name in sorted(set(expected) - summary.fired())
    ]
    share = unattributed_share(summary, thread_seconds)
    if share > MAX_UNATTRIBUTED_SHARE:
        problems.append(
            f"unattributed.share {share:.3f} > {MAX_UNATTRIBUTED_SHARE}"
        )
    return problems


def unattributed_share(summary: SpanSummary, thread_seconds: float) -> float:
    if thread_seconds <= 0:
        return 0.0
    return max(0.0, thread_seconds - summary.root_s) / thread_seconds
