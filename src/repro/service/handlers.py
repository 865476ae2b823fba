"""Endpoint implementations: validated JSON dict in, JSON dict out.

Handlers are plain functions ``(state, params) -> payload``.
:data:`ROUTES` declares every endpoint and POST body field once, and
:func:`dispatch` validates a body and runs its handler for both the HTTP
layer (:mod:`repro.service.server`, which owns parsing and envelopes)
and the control socket's ``invoke`` (:mod:`repro.service.control`), so
the contract can be tested without sockets.  Anything invalid raises
:class:`~repro.service.state.ApiError` with a structured body.

Each heavy endpoint funnels through the state's
:class:`~repro.service.coalesce.ComputeCache`, so the response carries
``"source"``: ``"lru"`` (served from memory), ``"computed"`` (this
request ran the pipeline) or ``"coalesced"`` (another identical
in-flight request ran it and we shared the result).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..ir import BranchSite
from ..learn import (
    DEFAULT_SPLIT,
    LearnedPredictor,
    default_learned_configs,
    fit,
    holdout_trace,
    model_from_json,
    model_to_json,
    parse_learned_name,
    training_cut,
)
from ..learn.serialize import FORMAT_VERSION as MODEL_FORMAT_VERSION
from ..obs import (
    OBS,
    PROMETHEUS_CONTENT_TYPE,
    format_span_tree,
    format_traceparent,
    new_span_id,
    render_prometheus,
    trace_chrome_doc,
)
from ..obs.profiler import (
    DEFAULT_SECONDS as PROFILE_DEFAULT_SECONDS,
    MAX_SECONDS as PROFILE_MAX_SECONDS,
    ProfilerBusy,
    profile_collapsed,
)
from ..predictors import (
    LastDirection,
    Predictor,
    SaturatingCounter,
    all_yeh_patt_variants,
    evaluate_many,
    semistatic_suite,
    static_predictors,
    two_level_4k,
)
from ..profiling.columns import get_numpy
from ..replication import ReplicationPlanner
from ..replication.tradeoff import TradeoffPoint, tradeoff_curve
from ..statemachines import machine_to_json
from ..statemachines.serialize import FORMAT_VERSION as MACHINE_FORMAT_VERSION
from ..workloads import BENCHMARK_NAMES, artifacts as artifact_store
from ..workloads.benchmarks import WORKLOADS, get_profile, get_program, get_trace
from .control import (
    ControlError,
    ask_peers,
    control_request,
    fleet_snapshot,
    fleet_statuses,
    socket_path,
)
from .shard import owner_shard, shard_key
from .state import SERVICE_VERSION, ApiError, ServiceState

#: Version of the JSON response envelope every endpoint answers with.
ENVELOPE_VERSION = 1

#: Cap on sites echoed back by /artifacts (benchmarks are small, but
#: the contract should not grow linearly with arbitrary programs).
MAX_TOP_SITES = 20
#: Cap on trade-off points echoed back by /plan.
MAX_CURVE_POINTS = 100


# -- response envelope -------------------------------------------------------


def envelope(payload: Any, trace_id: Optional[str] = None) -> dict:
    """Wrap a handler payload in the versioned success envelope.

    Every JSON endpoint answers ``{"v": 1, "ok": true, "data": ...}``;
    handlers keep returning plain payload dicts and the HTTP layer wraps
    at send time.
    *trace_id* (present whenever the tracing layer is live) names the
    request's distributed trace — resolvable via ``GET /trace/{id}``.
    """
    doc = {"v": ENVELOPE_VERSION, "ok": True, "data": payload}
    if trace_id is not None:
        doc["trace_id"] = trace_id
    return doc


def error_envelope(
    error: Dict[str, Any],
    retry_after: Optional[int] = None,
    trace_id: Optional[str] = None,
) -> dict:
    """Wrap an error body (``ApiError.body()["error"]`` shape) in the v1
    envelope: ``{"v": 1, "ok": false, "error": {"code", "message", ...}}``.

    *retry_after* (seconds) is included for backpressure/drain errors so
    clients can honour it without parsing HTTP headers.
    """
    err = dict(error)
    if retry_after is not None:
        err["retry_after"] = retry_after
    doc = {"v": ENVELOPE_VERSION, "ok": False, "error": err}
    if trace_id is not None:
        doc["trace_id"] = trace_id
    return doc


# -- request bodies ----------------------------------------------------------


def _bad_request(message: str, **details: Any) -> ApiError:
    return ApiError(400, "bad_request", message, **details)


#: ``Field.default`` of a field every body must carry.
REQUIRED: Any = object()


class Field(NamedTuple):
    """One POST body field, declared in its route's ``body``.

    ``kind`` is ``int``, ``float`` (any JSON number, read as a float),
    ``str`` (non-empty) or :class:`~repro.ir.BranchSite` (a
    ``function:block`` string); a bool is never a number.  An absent
    field reads as ``default``, and so does ``null`` if that is ``None``.
    """

    name: str
    kind: type
    default: Any = REQUIRED
    #: numeric bounds, inclusive unless ``low_open``
    low: Any = None
    high: Any = None
    low_open: bool = False
    #: a ``str`` field's accepted values (benchmark names: else a 404)
    choices: Tuple[str, ...] = ()

    def read(self, body: Dict[str, Any]) -> Any:
        """This field's value in *body*, or the ``ApiError`` rejecting it."""
        value = body.get(self.name, self.default)
        if value is None and self.default is None:
            return None
        if self.kind is str:
            if not isinstance(value, str) or not value:
                raise _bad_request(
                    f"{self.name!r} is required and must be a non-empty string"
                )
            if self.choices and value not in self.choices:
                raise ApiError(404, "unknown_benchmark", f"unknown benchmark {value!r}",
                               available=list(self.choices))
            return value
        if self.kind is BranchSite:
            if not isinstance(value, str) or ":" not in value:
                raise _bad_request(f"{self.name!r} must be a 'function:block' string")
            function, _, block = value.partition(":")
            return BranchSite(function, block)
        if isinstance(value, bool) or not isinstance(
            value, int if self.kind is int else (int, float)
        ):
            noun = "an integer" if self.kind is int else "a number"
            raise _bad_request(f"{self.name!r} must be {noun}", got=repr(value))
        # Compared before the conversion: float(10**400) would overflow.
        above_low = self.low < value if self.low_open else self.low <= value
        if not (above_low and value <= self.high):
            bounds = f"{'(' if self.low_open else '['}{self.low}, {self.high}]"
            raise _bad_request(f"{self.name!r} must be in {bounds}", got=value)
        return self.kind(value)


def _artifact(args: Dict[str, Any]) -> Tuple[str, int, int]:
    """The validated artifact triple ``(name, scale, seed_offset)``."""
    return args["name"], args["scale"], args["seed_offset"]


def _artifact_doc(artifact: Tuple[str, int, int]) -> dict:
    """The triple as every heavy payload echoes it."""
    return dict(zip(("benchmark", "scale", "seed_offset"), artifact))


# -- fleet routing -----------------------------------------------------------


def _shard_route(
    state: ServiceState, route: Route, body: dict, args: dict
) -> Optional[dict]:
    """Proxy to the artifact's owning shard; ``None`` → compute here.

    The shared listening socket hands a connection to *any* worker, but
    each artifact triple has one rendezvous-hash owner whose caches stay
    hot (see :mod:`repro.service.shard`).  Non-owners forward the call
    over the owner's control socket; the owner's own backpressure and
    error semantics pass through verbatim (a 429 on the owner is a 429
    to the client).  If the owner is unreachable — killed mid-chaos,
    restarting — the accepting worker computes locally instead of
    failing, so a dead shard degrades cache locality, never requests.
    :func:`dispatch` has already validated *body* into *args*, so an
    invalid body is rejected on the accepting worker and never proxied;
    the owner is keyed on the validated triple, and validates the
    forwarded *body* again because it must not trust the wire.
    """
    if not state.is_fleet_worker:
        return None
    owner = owner_shard(shard_key(*_artifact(args)), state.fleet_size)
    if owner == state.config.shard_index:
        OBS.add("service.shard.local")
        return None
    request = {"op": "invoke", "method": route.method, "path": route.path, "body": body}
    trace = OBS.current_trace()
    if trace is not None:
        # Carry the trace context across the control-socket hop so the
        # owner's compute spans parent under this request's span.
        parent = OBS.current_span_id() or new_span_id()
        request["traceparent"] = format_traceparent(trace.trace_id, parent)
        request_id = trace.notes.get("request_id")
        if request_id:
            request["request_id"] = request_id
        request["invoked_by"] = state.config.shard_index
    try:
        reply = control_request(
            socket_path(state.config.control_dir, owner), request
        )
    except ControlError:
        OBS.add("service.shard.fallback_local")
        if trace is not None:
            trace.notes["fallback_local"] = True
        return None
    if trace is not None:
        trace.notes["proxied"] = True
        trace.notes["owner"] = owner
    if reply.get("ok"):
        OBS.add("service.shard.proxied")
        payload = dict(reply.get("payload") or {})
        payload["shard"] = {"owner": owner, "proxied_by": state.config.shard_index}
        remote = reply.get("spans")
        if trace is not None and isinstance(remote, list):
            # The owner also keeps its own flight-recorder entry, but a
            # client asking *any* worker for GET /trace/{id} should see
            # the stitched tree even if the owner's ring evicts first.
            trace.add_span_dicts(remote)
        return payload
    error = reply.get("error") or {}
    raise ApiError(
        int(error.get("status", 500)),
        str(error.get("code", "internal")),
        str(error.get("message", "proxied request failed")),
        **dict(error.get("details") or {}),
    )


# -- light endpoints (served inline) -----------------------------------------


def handle_healthz(state: ServiceState, body: Optional[dict]) -> dict:
    return {
        "status": "draining" if state.draining else "ok",
        "service_version": SERVICE_VERSION,
        "uptime_seconds": round(state.uptime(), 3),
        "in_flight": state.inflight_requests,
        "queue_depth": state.queue_depth,
    }


def handle_benchmarks(state: ServiceState, body: Optional[dict]) -> dict:
    return {
        "benchmarks": [
            {
                "name": spec.name,
                "description": spec.description,
                "cached_on_disk": artifact_store.cached_on_disk(spec.name),
            }
            for spec in WORKLOADS.values()
        ]
    }


def handle_stats(state: ServiceState, body: Optional[dict]) -> dict:
    """Fleet-wide statistics (exact; see :func:`fleet_snapshot`).

    In fleet mode, counters and rates are summed across every reachable
    worker and histogram buckets are merged exactly, so p50/p95/p99 are
    the true fleet-wide quantiles — not an average of per-worker
    quantiles.  The ``service`` block stays local to the worker that
    answered (its pool, its queue); ``fleet`` reports the merge.
    """
    snapshot, rates, unreachable = fleet_snapshot(state)
    doc = {
        "uptime_seconds": round(state.uptime(), 3),
        "counters": snapshot.counters,
        "rates": {name: round(value, 3) for name, value in rates.items()},
        "histograms": {
            name: {
                "count": hist.count,
                "p50": hist.quantile(0.50),
                "p95": hist.quantile(0.95),
                "p99": hist.quantile(0.99),
            }
            for name, hist in sorted(snapshot.hists.items())
        },
        "service": {
            "in_flight": state.inflight_requests,
            "queue_depth": state.queue_depth,
            "queue_capacity": state.config.queue_capacity,
            "draining": state.draining,
            "cache_sizes": {
                cache.name: len(cache)
                for cache in (
                    state.artifacts,
                    state.predictions,
                    state.planners,
                    state.plans,
                    state.models,
                )
            },
        },
    }
    if state.is_fleet_worker:
        doc["fleet"] = {
            "workers": state.fleet_size,
            "answered_by": state.config.shard_index,
            "merged_workers": state.fleet_size - len(unreachable),
            "unreachable": unreachable,
        }
    return doc


def handle_fleet(state: ServiceState, body: Optional[dict]) -> dict:
    """Per-worker fleet roster: who is alive, on which pid, how busy.

    Outside fleet mode this is a one-row roster for the single process.
    """
    entries, unreachable = fleet_statuses(state)
    return {
        "workers": state.fleet_size,
        "answered_by": state.config.shard_index,
        "as_of": OBS.epoch(),
        "alive": len(entries),
        "unreachable": unreachable,
        "fleet": [
            {
                "shard": entry.get("shard"),
                "pid": entry.get("pid"),
                "as_of": entry.get("as_of"),
                "uptime_seconds": entry.get("uptime_seconds"),
                "inflight": entry.get("inflight"),
                "draining": entry.get("draining"),
                "requests": entry.get("requests"),
                "latency_p95_ms": entry.get("latency_p95_ms"),
            }
            for entry in entries
        ],
    }


def handle_metrics(state: ServiceState, body: Optional[dict]) -> str:
    """The Prometheus text exposition body for ``GET /metrics``.

    Refreshes the level gauges (uptime, in-flight, queue depth) so a
    scrape never reads a stale level, then renders the fleet-merged
    snapshot plus the summed sliding-window rates.  Histogram buckets
    merge exactly across workers, so quantiles derived from the
    exposition are fleet-exact; gauges are last-write-wins and reflect
    one worker (scrape ``/fleet`` for per-worker levels).

    When the flight recorder is live, latency buckets carry OpenMetrics
    exemplars — one kept trace id per bucket — so a dashboard can jump
    from a latency spike straight to ``GET /trace/{id}``.
    """
    OBS.set_gauge("service.uptime_seconds", round(state.uptime(), 3))
    OBS.set_gauge("service.inflight_requests", state.inflight_requests)
    OBS.set_gauge("service.queue.depth", state.queue_depth)
    snapshot, rates, _ = fleet_snapshot(state)
    exemplars = None
    if state.flight.enabled:
        bucket_exemplars = state.flight.exemplars()
        if bucket_exemplars:
            exemplars = {"service.latency_seconds": bucket_exemplars}
    return render_prometheus(snapshot, rates=rates, exemplars=exemplars)


def handle_debug_profile(state: ServiceState, params: Optional[dict]) -> str:
    """``GET /debug/profile?seconds=S``: collapsed stacks sampled from
    this worker for *S* seconds (one profile at a time)."""
    raw = (params or {}).get("seconds", str(PROFILE_DEFAULT_SECONDS))
    try:
        seconds = float(raw)
    except (TypeError, ValueError):
        raise _bad_request(f"unparseable seconds {raw!r}")
    if not 0.0 < seconds <= PROFILE_MAX_SECONDS:
        raise _bad_request(
            f"seconds must be in (0, {PROFILE_MAX_SECONDS:.0f}]", got=seconds
        )
    try:
        return profile_collapsed(seconds)
    except ProfilerBusy:
        raise ApiError(429, "profiler_busy", "a profile is already running")


# -- distributed traces (flight recorder) ------------------------------------


def _valid_trace_id(raw: Any) -> str:
    trace_id = str(raw or "").strip().lower()
    if len(trace_id) != 32 or any(c not in "0123456789abcdef" for c in trace_id):
        raise _bad_request(
            "'trace_id' must be 32 lowercase hex characters", got=str(raw)[:64]
        )
    return trace_id


def handle_trace(state: ServiceState, body: Optional[dict]) -> dict:
    """``GET /trace/{id}``: the stitched, fleet-wide view of one trace.

    Any worker answers: it merges its own flight-recorder entry with
    every reachable peer's (``trace`` control op), dedups spans by span
    id (the proxy's entry already embeds owner spans returned over the
    invoke hop), and renders one tree plus a Chrome/Perfetto document.
    404 ``trace_not_found`` when no worker retained the id — dropped by
    tail-sampling or already evicted from the bounded rings.
    """
    trace_id = _valid_trace_id((body or {}).get("trace_id"))
    holders: List[Tuple[Optional[int], dict]] = []
    local = state.flight.get(trace_id)
    if local is not None:
        holders.append((state.config.shard_index, local))
    replies, unreachable = ask_peers(state, {"op": "trace", "trace_id": trace_id})
    for shard, reply in replies.items():
        entry = reply.get("entry")
        if reply.get("ok") and isinstance(entry, dict):
            holders.append((shard, entry))
    if not holders:
        raise ApiError(
            404,
            "trace_not_found",
            f"no worker retained trace {trace_id!r} "
            "(not sampled, or evicted from the flight-recorder ring)",
            unreachable=unreachable,
        )
    spans: List[dict] = []
    seen: set = set()
    for _, entry in holders:
        for span in entry.get("spans") or []:
            span_id = span.get("span_id")
            if span_id is not None and span_id in seen:
                continue
            if span_id is not None:
                seen.add(span_id)
            spans.append(span)
    spans.sort(key=lambda s: (s.get("start") or 0.0))
    pids = sorted({s.get("pid") for s in spans if s.get("pid") is not None})
    # The entry recorded by the client-facing worker (the one whose
    # notes lack the owner marker) describes the request end to end.
    primary = next(
        (entry for _, entry in holders if not (entry.get("notes") or {}).get("owner")),
        holders[0][1],
    )
    return {
        "trace_id": trace_id,
        "route": primary.get("route"),
        "status": primary.get("status"),
        "duration_ms": primary.get("duration_ms"),
        "request_id": primary.get("request_id"),
        "kept": primary.get("kept"),
        "notes": primary.get("notes") or {},
        "workers": [shard for shard, _ in holders],
        "pids": pids,
        "unreachable": unreachable,
        "spans": spans,
        "tree": format_span_tree(spans),
        "chrome": trace_chrome_doc(trace_id, spans),
    }


def handle_debug_traces(state: ServiceState, body: Optional[dict]) -> dict:
    """``GET /debug/traces``: every worker's flight-recorder ring, newest
    first — the index you browse before ``GET /trace/{id}``."""
    recorders = [
        {
            "shard": state.config.shard_index,
            "retained": len(state.flight),
            "traces": state.flight.summaries(),
        }
    ]
    replies, unreachable = ask_peers(state, {"op": "traces"})
    recorders += [
        {
            "shard": shard,
            "retained": reply.get("retained", 0),
            "traces": reply.get("traces") or [],
        }
        for shard, reply in replies.items()
        if reply.get("ok")
    ]
    return {
        "enabled": state.flight.enabled,
        "sample_rate": state.flight.sample_rate,
        "slow_threshold_ms": round(state.flight.slow_threshold * 1e3, 3),
        "capacity": state.flight.capacity,
        "answered_by": state.config.shard_index,
        "unreachable": unreachable,
        "recorders": recorders,
    }


# -- heavy endpoints (worker pool + compute caches) --------------------------


def _artifact_summary(name: str, scale: int, seed_offset: int) -> dict:
    profile = get_profile(name, scale, seed_offset)
    steps = artifact_store.get_artifacts(
        name, scale=scale, seed_offset=seed_offset
    ).steps
    ranked = sorted(
        profile.totals.items(), key=lambda item: -(item[1][0] + item[1][1])
    )
    return {
        **_artifact_doc((name, scale, seed_offset)),
        "events": profile.events,
        "steps": steps,
        "sites": len(profile.totals),
        "top_sites": [
            {
                "site": str(site),
                "executions": counts[0] + counts[1],
                "taken": counts[1],
                "taken_rate": round(counts[1] / max(counts[0] + counts[1], 1), 6),
            }
            for site, counts in ranked[:MAX_TOP_SITES]
        ],
    }


def handle_artifacts(state: ServiceState, args: dict) -> dict:
    artifact = _artifact(args)
    summary, source = state.artifacts.get(
        artifact, lambda: state.run_heavy(lambda: _artifact_summary(*artifact))
    )
    return dict(summary, source=source)


def _build_zoo(artifact: Tuple[str, int, int]) -> Dict[str, Predictor]:
    """Fresh instances of the whole predictor zoo, keyed by name.

    Fresh per call because dynamic predictors carry run-time state; the
    evaluation result is what gets cached, never the predictor.
    """
    zoo: List[Predictor] = [
        *static_predictors(get_program(artifact[0])),
        *semistatic_suite(get_profile(*artifact)),
        LastDirection(),
        SaturatingCounter(2),
        *all_yeh_patt_variants().values(),
        two_level_4k(),
    ]
    return {predictor.name: predictor for predictor in zoo}


def _evaluate_predictor(artifact: Tuple[str, int, int], predictor_name: str) -> dict:
    zoo = _build_zoo(artifact)
    predictor = zoo.get(predictor_name)
    if predictor is None:
        raise ApiError(
            404,
            "unknown_predictor",
            f"unknown predictor {predictor_name!r}",
            available=sorted(zoo),
        )
    (result,) = evaluate_many([predictor], get_trace(*artifact))
    return _prediction_doc(artifact, predictor_name, predictor, result)


def _accuracy(result) -> dict:
    return {
        "events": result.events,
        "mispredictions": result.mispredictions,
        "misprediction_rate": round(result.misprediction_rate, 6),
        "accuracy": round(result.accuracy, 6),
    }


def _prediction_doc(
    artifact: Tuple[str, int, int], predictor_name: str, predictor, result
) -> dict:
    """The ``/predict`` payload for one evaluation of *predictor*."""
    sites = []
    predictor.reset()
    for site in sorted(result.per_site, key=str):
        stats = result.per_site[site]
        entry = {
            "site": str(site),
            "executions": stats.executions,
            "mispredictions": stats.mispredictions,
            "rate": round(stats.rate, 6),
        }
        if predictor.order_independent:
            # A static prediction is a per-site constant — expose the
            # direction the compiler would emit.
            entry["predicted_taken"] = predictor.predict(site)
        sites.append(entry)
    return {
        **_artifact_doc(artifact),
        "predictor": predictor_name,
        "order_independent": predictor.order_independent,
        **_accuracy(result),
        "sites": sites,
    }


def handle_predict(state: ServiceState, args: dict) -> dict:
    artifact, predictor_name = _artifact(args), args["predictor"]
    learned = _learned_config(predictor_name) is not None
    payload, source = state.predictions.get(
        (*artifact, predictor_name),
        lambda: state.run_heavy(
            lambda: _learned_prediction(state, artifact, predictor_name)
            if learned
            else _evaluate_predictor(artifact, predictor_name)
        ),
    )
    return dict(payload, source=source)


# -- learned models (train-as-a-service) -------------------------------------


def _learned_config(predictor_name: str):
    """Parse a ``learned-*`` predictor name; names in the learned
    namespace with invalid parameters are a 400, anything else is
    ``None`` (→ the classic zoo)."""
    try:
        return parse_learned_name(predictor_name)
    except ValueError as error:
        raise _bad_request(str(error), predictor=predictor_name)


def _train_model(artifact: Tuple[str, int, int], config, split: float) -> dict:
    """Train one model and summarise it (runs on the worker pool; the
    result is what the models cache stores)."""
    from time import perf_counter

    trace = get_trace(*artifact)
    started = perf_counter()
    get_numpy()
    model = fit(trace.columns(), config, split)
    OBS.observe("learn.train_seconds", perf_counter() - started)
    OBS.add("learn.train.fits")
    train_events = training_cut(len(trace), split)
    OBS.add("learn.train.events", train_events)
    payload = {
        **_artifact_doc(artifact),
        "predictor": config.name,
        "split": split,
        "train_events": train_events,
        "sites_learned": len(model.sites),
        "model_format_version": MODEL_FORMAT_VERSION,
        "model": json.loads(model_to_json(model)),
    }
    if split < 1.0:
        holdout = holdout_trace(trace, split)
        (result,) = evaluate_many([LearnedPredictor(model)], holdout)
        payload["holdout"] = _accuracy(result)
    return payload


def _learned_prediction(
    state: ServiceState, artifact: Tuple[str, int, int], predictor_name: str
) -> dict:
    """Evaluate a learned predictor on the holdout suffix, training (or
    fetching) the model through the models cache.

    Already running on the worker pool, so the nested cache compute must
    not re-enter ``run_heavy`` — a second slot acquisition under load
    would turn one admitted request into a spurious 429.
    """
    config = _learned_config(predictor_name)
    trained, _ = state.models.get(
        (*artifact, predictor_name, DEFAULT_SPLIT),
        lambda: _train_model(artifact, config, DEFAULT_SPLIT),
    )
    # Deploy from the wire format, not a live object: the cache holds
    # the JSON-able /train payload (it may have crossed a shard proxy),
    # and round-tripping guarantees served predictions match what a
    # client downloading the model would compute.
    model = model_from_json(json.dumps(trained["model"]))
    predictor = LearnedPredictor(model)
    holdout = holdout_trace(get_trace(*artifact), DEFAULT_SPLIT)
    (result,) = evaluate_many([predictor], holdout)
    payload = _prediction_doc(artifact, predictor_name, predictor, result)
    payload["learned"] = {
        key: trained[key]
        for key in ("split", "train_events", "sites_learned", "model_format_version")
    }
    return payload


def handle_train(state: ServiceState, args: dict) -> dict:
    artifact, predictor_name, split = _artifact(args), args["predictor"], args["split"]
    config = _learned_config(predictor_name)
    if config is None:
        raise ApiError(
            404,
            "unknown_predictor",
            f"{predictor_name!r} is not a learned predictor "
            "(expected learned-<kind>-<scope>-<k>bit)",
            available=[config.name for config in default_learned_configs()],
        )
    payload, source = state.models.get(
        (*artifact, predictor_name, split),
        lambda: state.run_heavy(lambda: _train_model(artifact, config, split)),
    )
    OBS.add("learn.train.requests")
    return dict(payload, source=source)


def _get_planner(
    state: ServiceState, artifact: Tuple[str, int, int], max_states: int
) -> Tuple[ReplicationPlanner, str]:
    return state.planners.get(
        (*artifact, max_states),
        lambda: state.run_heavy(
            lambda: ReplicationPlanner(
                get_program(artifact[0]), get_profile(*artifact), max_states
            )
        ),
    )


def handle_machine(state: ServiceState, args: dict) -> dict:
    artifact, max_states, site = _artifact(args), args["max_states"], args["site"]
    planner, source = _get_planner(state, artifact, max_states)
    if site is not None:
        plan = planner.plans.get(site)
        if plan is None:
            raise ApiError(
                404,
                "unknown_site",
                f"no executed branch {str(site)!r} in {artifact[0]!r}",
                available=sorted(str(s) for s in planner.plans),
            )
    else:
        improvable = planner.improvable_plans()
        if not improvable:
            raise ApiError(
                404,
                "no_improvable_branch",
                f"no branch of {artifact[0]!r} improves on profile prediction",
            )
        plan = max(improvable, key=lambda p: p.executions)
    option = plan.best_option(max_states)
    if option is None:
        raise ApiError(
            404,
            "no_machine",
            f"no machine with <= {max_states} states beats profile "
            f"prediction for {plan.site}",
        )
    return {
        **_artifact_doc(artifact),
        "site": str(plan.site),
        "branch_class": plan.info.kind.value,
        "executions": plan.executions,
        "profile_correct": plan.profile_correct,
        "n_states": option.n_states,
        "family": option.family,
        "correct": option.correct,
        "extra_size": option.extra_size,
        "machine_format_version": MACHINE_FORMAT_VERSION,
        "machine": json.loads(machine_to_json(option.scored.machine)),
        "source": source,
    }


def _curve_payload(
    planner: ReplicationPlanner, points: List[TradeoffPoint]
) -> dict:
    def point_doc(point: TradeoffPoint) -> dict:
        doc = {
            "size": point.size,
            "size_factor": round(point.size_factor, 6),
            "mispredictions": point.mispredictions,
            "misprediction_rate": round(point.misprediction_rate, 6),
        }
        if point.step is not None:
            site, n_states = point.step
            doc["step"] = {"site": str(site), "n_states": n_states}
        return doc

    total = planner.total_executions()
    return {
        "branches": len(planner.plans),
        "improvable_branches": len(planner.improvable_plans()),
        "total_executions": total,
        "profile_misprediction_rate": round(points[0].misprediction_rate, 6),
        "upgrades": len(points) - 1,
        "final": point_doc(points[-1]),
        "truncated": len(points) > MAX_CURVE_POINTS,
        "curve": [point_doc(p) for p in points[:MAX_CURVE_POINTS]],
    }


def handle_plan(state: ServiceState, args: dict) -> dict:
    artifact = _artifact(args)
    max_states, max_size_factor = args["max_states"], args["max_size_factor"]

    def compute() -> dict:
        planner, _ = _get_planner(state, artifact, max_states)
        points = state.run_heavy(lambda: tradeoff_curve(planner, max_size_factor))
        payload = _curve_payload(planner, points)
        payload.update(
            _artifact_doc(artifact),
            max_states=max_states,
            max_size_factor=max_size_factor,
        )
        return payload

    payload, source = state.plans.get((*artifact, max_states, max_size_factor), compute)
    return dict(payload, source=source)


# -- routing table -----------------------------------------------------------

#: A handler returns a JSON payload, or the body text of a raw route.
Handler = Callable[[ServiceState, Optional[dict]], Any]

#: ``Route.kind`` of endpoints answering the v1 JSON envelope; any other
#: kind is the content type of a raw text body.
JSON = "application/json"

#: Route name of every request whose path matches no route: one fixed
#: name, so client-chosen paths cannot mint per-path metric series.
UNMATCHED = "unmatched"


class Route(NamedTuple):
    """One endpoint; the table below is the service's only route list."""

    method: str
    #: an exact path, or a template whose last segment ``{param}``
    #: captures the rest of the path into the handler's params
    path: str
    handler: Handler
    kind: str = JSON
    #: still served while the worker drains (the last scrape sees it)
    while_draining: bool = False
    #: a POST body's fields; :func:`dispatch` reads them for the handler
    body: Tuple[Field, ...] = ()

    @property
    def heavy(self) -> bool:
        """Compute-cache work, owned by the shard of the body's triple."""
        return self.body[: len(ARTIFACT_FIELDS)] == ARTIFACT_FIELDS

    @property
    def prefix(self) -> str:
        return self.path.partition("{")[0]

    @property
    def param(self) -> Optional[str]:
        """The captured parameter's name; ``None`` for an exact path."""
        _, brace, rest = self.path.partition("{")
        return rest.rstrip("}") if brace else None

    @property
    def name(self) -> str:
        """Span/counter suffix: ``/debug/traces`` → ``debug.traces``."""
        return self.prefix.strip("/").replace("/", ".")


#: The artifact triple every heavy route's body starts with: its compute
#: caches' key and its owner shard's.  The bounds also bound per-request
#: work, or one request could DoS a 429-guarded pool.
ARTIFACT_FIELDS: Tuple[Field, ...] = (
    Field("name", str, choices=tuple(BENCHMARK_NAMES)),
    Field("scale", int, 1, 1, 16),
    Field("seed_offset", int, 0, -(2**31), 2**31),
)
_PREDICTOR = Field("predictor", str)
_MAX_STATES = Field("max_states", int, 6, 2, 10)

ROUTES: Tuple[Route, ...] = (
    Route("GET", "/healthz", handle_healthz),
    Route("GET", "/benchmarks", handle_benchmarks),
    Route("GET", "/stats", handle_stats),
    Route("GET", "/fleet", handle_fleet),
    Route(
        "GET", "/metrics", handle_metrics,
        kind=PROMETHEUS_CONTENT_TYPE, while_draining=True,
    ),
    Route("GET", "/trace/{trace_id}", handle_trace),
    Route("GET", "/debug/traces", handle_debug_traces),
    Route(
        "GET", "/debug/profile", handle_debug_profile,
        kind="text/plain; charset=utf-8",
    ),
    Route("POST", "/artifacts", handle_artifacts, body=ARTIFACT_FIELDS),
    Route("POST", "/predict", handle_predict, body=ARTIFACT_FIELDS + (_PREDICTOR,)),
    Route(
        "POST", "/machine", handle_machine,
        body=ARTIFACT_FIELDS + (_MAX_STATES, Field("site", BranchSite, None)),
    ),
    Route(
        "POST", "/plan", handle_plan,
        body=ARTIFACT_FIELDS
        + (_MAX_STATES, Field("max_size_factor", float, None, 1.0, 100.0)),
    ),
    Route(
        "POST", "/train", handle_train,
        body=ARTIFACT_FIELDS
        + (_PREDICTOR, Field("split", float, DEFAULT_SPLIT, 0, 1, low_open=True)),
    ),
)

#: exact path -> {method: route}; templates as (prefix, param, {method: route})
_EXACT: Dict[str, Dict[str, Route]] = {}
_TEMPLATES: List[Tuple[str, str, Dict[str, Route]]] = []
for _route in ROUTES:
    if _route.param is None:
        _EXACT.setdefault(_route.path, {})[_route.method] = _route
    else:
        _TEMPLATES.append((_route.prefix, _route.param, {_route.method: _route}))

#: What a 404 lists: the JSON endpoints with fixed paths.
_AVAILABLE = sorted(
    f"{route.method} {route.path}"
    for route in ROUTES
    if route.kind == JSON and route.param is None
)


def match_route(path: str) -> Tuple[Dict[str, Route], Dict[str, str]]:
    """``({method: route}, captured params)`` for *path*; ``({}, {})``
    when no route has this path."""
    methods = _EXACT.get(path)
    if methods is not None:
        return methods, {}
    for prefix, param, methods in _TEMPLATES:
        if len(path) > len(prefix) and path.startswith(prefix):
            return methods, {param: path[len(prefix) :]}
    return {}, {}


def route_name(path: str) -> str:
    """The span/counter suffix for *path*, whatever the method: its
    route's name, or :data:`UNMATCHED`."""
    for route in match_route(path)[0].values():
        return route.name
    return UNMATCHED


def dispatch(
    state: ServiceState, method: str, path: str, params: Any, proxy: bool
) -> Tuple[Route, Any]:
    """Run the endpoint for ``method path``: ``(route, payload)``.

    *params* is the request body for POST and the query parameters for
    GET; a template route adds its captured path segment.  A POST body
    is read field by field from ``route.body``, so an invalid one is
    rejected before any routing or compute.  With *proxy* (the worker
    that accepted the request), a heavy route hops to the shard owning
    its artifact triple; an owner running a peer's ``invoke`` passes
    ``proxy=False`` and computes here.
    """
    methods, captured = match_route(path)
    route = methods.get(method)
    if route is None:
        if methods:
            raise ApiError(
                405, "method_not_allowed", f"{method} not allowed on {path}"
            )
        raise ApiError(
            404, "unknown_route", f"no such endpoint: {path}", available=_AVAILABLE
        )
    if method == "POST" and not isinstance(params, dict):
        raise _bad_request("body must be a JSON object")
    body = params
    if route.body:
        params = {field.name: field.read(body) for field in route.body}
    if captured:
        params = dict(params or {}, **captured)
    if proxy and route.heavy:
        proxied = _shard_route(state, route, body, params)
        if proxied is not None:
            return route, proxied
    return route, route.handler(state, params)
