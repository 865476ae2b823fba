"""The cross-system invariant catalog.

Each invariant relates *independent* observations of the same traffic:
what the recording client saw, what the merged ``/stats`` counters
say, what the Prometheus exposition's histogram buckets say, what the
access-log stream wrote, what each worker's control-socket snapshot
holds, and what is physically on disk.  A violation therefore means
two subsystems disagree about reality, which no unit test can show.

Counter semantics the checks lean on (see ``service/coalesce.py``,
``service/server.py``, ``workloads/artifacts.py``):

- ``service.requests.<route>`` bumps once per HTTP request in the
  dispatch ``finally`` — before the access-log line is written, so a
  settled log implies settled counters.
- ``service.cache.<name>.{hits,misses,coalesced}`` bump only on
  *successful* results; an erroring compute (including a 429 shed)
  bypasses cache accounting, and coalesced followers of an erroring
  leader re-raise without counting.
- ``service.coalesce.hits`` equals the sum of per-cache ``coalesced``.
- ``artifacts.cache.stores`` writes exactly one ``.trace`` + ``.aux``
  pair; ``artifacts.cache.bytes_written`` is their exact byte total.
- Proxied cross-shard requests bump HTTP counters on the fronting
  worker and cache counters on the owner; the fleet merge sums both,
  so merged accounting is proxy-agnostic.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .core import SKIP, WARNING, Invariant
from .world import HEAVY_ROUTES, LiveWorld

#: Upper slack for server-vs-client latency comparisons: the histogram
#: grid's ~4.9% relative error (GROWTH=1.1) plus headroom for the
#: client measuring a strictly longer interval than the server.
LATENCY_SLACK = 1.15

VALID_SOURCES = {"lru", "computed", "coalesced"}

#: Counter names compared between merged /stats and per-worker
#: snapshots.  Restricted to names journey traffic touches and probe
#: traffic does not, so the set is stable between two control sweeps
#: when no journey request is in flight.
MERGE_COMPARED_COUNTERS = tuple(
    [f"service.requests.{route}" for route in HEAVY_ROUTES]
    + [
        f"service.cache.{cache}.{kind}"
        for cache in ("artifacts", "predict", "planner", "plan", "models")
        for kind in ("hits", "misses", "coalesced")
    ]
    + [
        "service.coalesce.hits",
        "artifacts.cache.stores",
        "learn.train.requests",
        "learn.train.fits",
    ]
)

#: /machine error codes raised *after* the planner cache was consulted
#: (body validation passed, the planner was built/fetched, then the
#: site/threshold lookup failed) — these calls still count one planner
#: cache transaction.
MACHINE_POST_PLANNER_CODES = {"unknown_site", "no_machine", "no_improvable_branch"}


def _answered(world: LiveWorld) -> List[Any]:
    return [record for record in world.calls if record.status is not None]


# -- contract invariants (no conditions required) ----------------------------


def check_envelope_v1(world: LiveWorld) -> Any:
    """Every JSON response is a well-formed v1 envelope whose ``ok``
    agrees with the HTTP status; 429/503 carry ``retry_after``."""
    for record in _answered(world):
        doc = record.document
        if not isinstance(doc, dict):
            return {"step": record.step, "path": record.path, "body": repr(doc)[:200]}
        ok_expected = 200 <= record.status < 300
        if doc.get("v") != 1 or doc.get("ok") is not ok_expected:
            return {
                "step": record.step, "path": record.path, "status": record.status,
                "v": doc.get("v"), "ok": doc.get("ok"), "ok_expected": ok_expected,
            }
        if ok_expected and "data" not in doc:
            return {"step": record.step, "path": record.path, "missing": "data"}
        if not ok_expected:
            error = doc.get("error")
            if not isinstance(error, dict) or not error.get("code") or not error.get("message"):
                return {"step": record.step, "path": record.path, "error": error}
            if record.status in (429, 503) and "retry_after" not in error:
                return {
                    "step": record.step, "path": record.path,
                    "status": record.status, "missing": "error.retry_after",
                }
    return True


def check_request_id_echoed(world: LiveWorld) -> Any:
    """The server echoes the client's X-Request-Id verbatim."""
    for record in _answered(world):
        if record.echoed_id != record.request_id:
            return {
                "step": record.step, "path": record.path,
                "sent": record.request_id, "echoed": record.echoed_id,
            }
    return True


def check_source_field_valid(world: LiveWorld) -> Any:
    """Every heavy 200 names how it was served: lru|computed|coalesced."""
    for route in HEAVY_ROUTES:
        for record in world.calls_for(route, statuses=(200,)):
            source = record.data.get("source") if isinstance(record.data, dict) else None
            if source not in VALID_SOURCES:
                return {"step": record.step, "route": route, "source": source}
    return True


def check_backpressure_contract(world: LiveWorld) -> Any:
    """Shed requests are structured 429s: code ``overloaded``, an
    in-band ``retry_after``, and the overload counter accounts for
    them — at least one shed counted, never more counted than clients
    saw (coalesced followers share a leader's 429 without counting)."""
    rejected = [r for r in _answered(world) if r.status == 429]
    for record in rejected:
        code = record.error_doc.get("code")
        if code != "overloaded":
            return {"step": record.step, "status": 429, "code": code}
    if "accepting" in world.conditions and "stable_fleet" in world.conditions:
        counted = world.counter_delta(world.counters(), "service.rejected.overload")
        if rejected and not counted:
            return {"client_429s": len(rejected), "rejected_overload_delta": counted}
        if counted > len(rejected):
            return {"client_429s": len(rejected), "rejected_overload_delta": counted}
    return True


def check_drain_contract(world: LiveWorld) -> Any:
    """While draining: JSON endpoints answer a structured 503
    (``draining``) but ``/metrics`` stays live for the final scrape."""
    if not world.draining:
        return SKIP
    for record in _answered(world):
        if record.status == 503:
            code = record.error_doc.get("code")
            if code != "draining":
                return {"step": record.step, "status": 503, "code": code}
    status, document = world.probe_raw("GET", "/healthz")
    if status != 503:
        return {"probe": "GET /healthz", "status": status, "expected": 503}
    error = document.get("error", {}) if isinstance(document, dict) else {}
    if error.get("code") != "draining":
        return {"probe": "GET /healthz", "code": error.get("code")}
    metrics_status = world.probe_metrics_status()
    if metrics_status != 200:
        return {"probe": "GET /metrics", "status": metrics_status, "expected": 200}
    return True


# -- traffic accounting (need a live /stats and an intact fleet) -------------


def check_access_log_complete(world: LiveWorld) -> Any:
    """Every answered journey request has exactly one access-log line,
    with matching status and route."""
    by_id: Dict[str, List[dict]] = {}
    for entry in world.access_entries():
        by_id.setdefault(str(entry.get("request_id")), []).append(entry)
    for record in _answered(world):
        lines = by_id.get(record.request_id, [])
        if len(lines) != 1:
            return {
                "step": record.step, "request_id": record.request_id,
                "lines": len(lines), "expected": 1,
            }
        line = lines[0]
        if line.get("status") != record.status or line.get("route") != record.route:
            return {
                "step": record.step, "request_id": record.request_id,
                "client": {"status": record.status, "route": record.route},
                "log": {"status": line.get("status"), "route": line.get("route")},
            }
    return True


def check_requests_counter_matches_log(world: LiveWorld) -> Any:
    """Per heavy route: merged request counter == access-log lines ==
    recorded client calls.  Three systems, one number."""
    counters = world.counters()
    entries = world.access_entries()
    for route in HEAVY_ROUTES:
        recorded = len(world.calls_for(route, statuses=None))
        recorded_answered = len(_answered_route(world, route))
        if recorded != recorded_answered:
            # transport-failed calls make exact accounting undecidable
            return SKIP
        counted = world.counter_delta(counters, f"service.requests.{route}")
        logged = sum(1 for e in entries if e.get("route") == route)
        if not (recorded == counted == logged):
            return {
                "route": route, "client_calls": recorded,
                "stats_counter_delta": counted, "access_log_lines": logged,
            }
    return True


def _answered_route(world: LiveWorld, route: str) -> List[Any]:
    return [r for r in world.calls_for(route) if r.status is not None]


def check_cache_accounting(world: LiveWorld) -> Any:
    """Per compute cache: hits + misses + coalesced == successful
    requests through it.  Errors (including 429 sheds) bypass cache
    accounting entirely, so only 200s count."""
    counters = world.counters()

    def cache_total(cache: str) -> float:
        return sum(
            world.counter_delta(counters, f"service.cache.{cache}.{kind}")
            for kind in ("hits", "misses", "coalesced")
        )

    for route, cache in (("artifacts", "artifacts"), ("predict", "predict"),
                         ("plan", "plan")):
        expected = len(world.calls_for(route, statuses=(200,)))
        observed = cache_total(cache)
        if observed != expected:
            return {
                "cache": cache, "route": route,
                "successful_calls": expected, "cache_transactions": observed,
            }
    # Planners: consulted by every /machine call that survives body
    # validation (200 or a post-planner 404) and by every /plan miss.
    machine_valid = len(world.calls_for("machine", statuses=(200,)))
    for record in world.calls_for("machine"):
        if record.status is not None and record.status != 200:
            if record.error_doc.get("code") in MACHINE_POST_PLANNER_CODES:
                machine_valid += 1
    plan_misses = world.counter_delta(counters, "service.cache.plan.misses")
    expected = machine_valid + plan_misses
    observed = cache_total("planner")
    if observed != expected:
        return {
            "cache": "planner", "machine_transactions": machine_valid,
            "plan_misses": plan_misses, "cache_transactions": observed,
        }
    return True


def check_learn_accounting(world: LiveWorld) -> Any:
    """The training pipeline's three ledgers agree: successful client
    ``/train`` calls == access-log train 200s == ``learn.train.requests``;
    every models-cache miss ran exactly one fit; and models-cache
    transactions are exactly the train 200s plus the learned ``/predict``
    responses that actually computed (lru/coalesced predicts reuse the
    model without consulting the models cache)."""
    train_records = world.calls_for("train")
    if any(record.status is None for record in train_records):
        return SKIP  # transport-failed train: server-side count unknowable
    train_200 = len(world.calls_for("train", statuses=(200,)))
    counters = world.counters()
    requested = world.counter_delta(counters, "learn.train.requests")
    logged = sum(
        1
        for entry in world.access_entries()
        if entry.get("route") == "train" and entry.get("status") == 200
    )
    if not (train_200 == requested == logged):
        return {
            "client_train_200s": train_200,
            "learn_train_requests_delta": requested,
            "access_log_train_200s": logged,
        }
    fits = world.counter_delta(counters, "learn.train.fits")
    model_misses = world.counter_delta(counters, "service.cache.models.misses")
    if fits != model_misses:
        return {"train_fits_delta": fits, "models_cache_misses_delta": model_misses}
    learned_computed = sum(
        1
        for record in world.calls_for("predict", statuses=(200,))
        if isinstance(record.body, dict)
        and str(record.body.get("predictor", "")).startswith("learned-")
        and isinstance(record.data, dict)
        and record.data.get("source") == "computed"
    )
    model_total = sum(
        world.counter_delta(counters, f"service.cache.models.{kind}")
        for kind in ("hits", "misses", "coalesced")
    )
    expected = train_200 + learned_computed
    if model_total != expected:
        return {
            "train_200s": train_200,
            "learned_predicts_computed": learned_computed,
            "models_cache_transactions": model_total,
        }
    return True


def check_coalesce_accounting(world: LiveWorld) -> Any:
    """Responses stamped ``coalesced`` — each a distinct X-Request-Id in
    the access log — match ``service.coalesce.hits`` exactly."""
    coalesced = [
        record
        for route in HEAVY_ROUTES
        for record in world.calls_for(route, statuses=(200,))
        if isinstance(record.data, dict) and record.data.get("source") == "coalesced"
    ]
    ids = [record.request_id for record in coalesced]
    if len(set(ids)) != len(ids):
        return {"duplicate_request_ids": len(ids) - len(set(ids))}
    logged = {e.get("request_id") for e in world.access_entries()}
    missing = [rid for rid in ids if rid not in logged]
    if missing:
        return {"coalesced_ids_missing_from_log": missing[:5]}
    counted = world.counter_delta(world.counters(), "service.coalesce.hits")
    if counted != len(coalesced):
        return {
            "client_coalesced_responses": len(coalesced),
            "coalesce_hits_delta": counted,
        }
    return True


def check_latency_histogram_agreement(world: LiveWorld) -> Any:
    """Per heavy route, the ``/metrics`` latency histogram grew by
    exactly one observation per request, and its p99 stays within the
    grid's error bound of the slowest client-observed latency."""
    parsed = world.metrics_parsed()
    from ..obs.hist import quantile_from_counts

    for route in HEAVY_ROUTES:
        records = _answered_route(world, route)
        if len(records) != len(world.calls_for(route)):
            return SKIP  # transport-failed call: server-side count unknowable
        delta = world.route_bucket_delta(route, parsed)
        observed = sum(count for _, count in delta)
        if observed != len(records):
            return {
                "route": route, "client_calls": len(records),
                "histogram_delta_count": observed,
            }
        if records:
            server_p99 = quantile_from_counts(delta, 0.99)
            client_max = max(record.latency_s for record in records)
            if server_p99 > client_max * LATENCY_SLACK:
                return {
                    "route": route,
                    "server_p99_s": round(server_p99, 6),
                    "client_max_s": round(client_max, 6),
                    "allowed_slack": LATENCY_SLACK,
                }
    return True


def check_disk_cache_consistent(world: LiveWorld) -> Any:
    """Disk accounting is exact: stores == new ``.trace`` files ==
    interpreter runs == disk-cache misses, and bytes written == bytes
    that appeared in the cache directory."""
    counters = world.counters()
    stores = world.counter_delta(counters, "artifacts.cache.stores")
    misses = world.counter_delta(counters, "artifacts.cache.misses")
    runs = world.counter_delta(counters, "artifacts.interpreter.runs")
    trace_files = world.disk_trace_delta()
    if not (stores == misses == runs == trace_files):
        return {
            "stores_delta": stores, "misses_delta": misses,
            "interpreter_runs_delta": runs, "new_trace_files": trace_files,
        }
    bytes_written = world.counter_delta(counters, "artifacts.cache.bytes_written")
    disk_bytes = world.disk_bytes_delta()
    if bytes_written != disk_bytes:
        return {"bytes_written_delta": bytes_written, "disk_bytes_delta": disk_bytes}
    return True


def check_service_vitals_sane(world: LiveWorld) -> Any:
    """Levels stay physical: the probe itself is in flight, the queue
    never exceeds its capacity, uptime is positive.

    Uptime is deliberately *not* checked for monotonicity: ``/stats``
    reports the answering worker's uptime, and successive scrapes can
    land on different workers (or a freshly respawned one).
    """
    health = world.probe_healthz()
    if health.get("in_flight", 0) < 1:  # the probe request itself
        return {"in_flight": health.get("in_flight")}
    stats = world.stats()
    service = stats.get("service", {})
    depth = service.get("queue_depth", 0)
    capacity = service.get("queue_capacity", 0)
    if not (0 <= depth <= capacity):
        return {"queue_depth": depth, "queue_capacity": capacity}
    if float(stats.get("uptime_seconds", 0.0)) <= 0:
        return {"uptime_seconds": stats.get("uptime_seconds")}
    return True


def check_trace_complete(world: LiveWorld) -> Any:
    """Every recent heavy 200's envelope trace id resolves via
    ``GET /trace/{id}`` to one stitched span tree: a single root,
    acyclic parent edges, spans from >= 2 worker pids when the request
    was proxied cross-shard, and a complete single-worker tree when the
    owner was unreachable (``fallback_local``).

    The QA fleet runs at ``--trace-sample 1``, so on a stable fleet a
    404 is itself a violation; after a worker kill the dead worker's
    ring is gone and a 404 is tolerated.
    """
    stable = "stable_fleet" in world.conditions
    verified = world.notes.setdefault("traces_verified", set())
    candidates = [
        record
        for route in HEAVY_ROUTES
        for record in world.calls_for(route, statuses=(200,))
    ][-8:]
    for record in candidates:
        doc = record.document if isinstance(record.document, dict) else {}
        trace_id = doc.get("trace_id")
        if not isinstance(trace_id, str) or len(trace_id) != 32:
            return {
                "step": record.step, "path": record.path,
                "envelope_trace_id": trace_id,
            }
        if trace_id in verified:
            continue
        try:
            status, envelope = world.trace_doc(trace_id)
        except OSError:
            return SKIP  # probe transport failure: nothing to compare
        if status == 404:
            if stable:
                return {
                    "step": record.step, "trace_id": trace_id,
                    "lookup_status": 404,
                    "note": "sample rate is 1.0 and the fleet is stable; "
                            "every recent trace must be retained",
                }
            continue  # a killed worker took its flight ring with it
        if status != 200:
            return {"step": record.step, "trace_id": trace_id,
                    "lookup_status": status}
        data = envelope.get("data") if isinstance(envelope, dict) else None
        data = data if isinstance(data, dict) else {}
        spans = [s for s in data.get("spans") or [] if isinstance(s, dict)]
        if not spans:
            return {"trace_id": trace_id, "spans": 0}
        ids = [s.get("span_id") for s in spans]
        if len(set(ids)) != len(ids) or None in ids:
            return {"trace_id": trace_id, "span_ids": ids[:10],
                    "note": "span ids must be present and distinct"}
        by_id = {s["span_id"]: s for s in spans}
        for span in spans:
            node, hops = span, 0
            while node is not None:
                hops += 1
                if hops > len(spans):
                    return {"trace_id": trace_id,
                            "parent_cycle_at": span.get("span_id")}
                node = by_id.get(node.get("parent_id"))
        roots = [s for s in spans if s.get("parent_id") not in by_id]
        if len(roots) != 1:
            return {
                "trace_id": trace_id,
                "roots": [s.get("name") for s in roots],
                "note": "a stitched trace has exactly one root span",
            }
        notes = data.get("notes") or {}
        pids = {s.get("pid") for s in spans}
        if notes.get("proxied") and stable and len(pids) < 2:
            return {
                "trace_id": trace_id, "proxied": True,
                "pids": sorted(pids),
                "note": "a cross-shard trace must carry both workers' spans",
            }
        if notes.get("fallback_local") and len(pids) != 1:
            return {
                "trace_id": trace_id, "fallback_local": True,
                "pids": sorted(pids),
                "note": "a fallback-local request never leaves its worker",
            }
        verified.add(trace_id)
    return True


# -- fleet invariants --------------------------------------------------------


def check_fleet_roster_sane(world: LiveWorld) -> Any:
    """/fleet accounting closes: alive + unreachable == workers, every
    entry carries a shard in range and a monotonic ``as_of``."""
    doc = world.fleet_doc()
    if doc.get("workers") != world.workers:
        return {"reported_workers": doc.get("workers"), "expected": world.workers}
    alive = doc.get("alive", 0)
    unreachable = doc.get("unreachable", [])
    if alive + len(unreachable) != world.workers:
        return {"alive": alive, "unreachable": unreachable, "workers": world.workers}
    if not isinstance(doc.get("as_of"), int):
        return {"as_of": doc.get("as_of")}
    for entry in doc.get("fleet", []):
        shard = entry.get("shard")
        if not isinstance(shard, int) or not 0 <= shard < world.workers:
            return {"entry_shard": shard, "workers": world.workers}
        if not isinstance(entry.get("as_of"), int):
            return {"shard": shard, "as_of": entry.get("as_of")}
    return True


def check_fleet_merge_exact(world: LiveWorld) -> Any:
    """Merged ``/stats`` counters equal the sum of per-worker
    control-socket snapshots — exactly, not approximately.

    Torn-read protocol: sweep every worker's snapshot (each carries an
    ``as_of`` epoch), scrape the merged ``/stats``, sweep again.  If any
    non-answering worker's epoch moved, or the answering worker's
    journey counters moved, something was writing mid-comparison and
    the check is SKIPped rather than reporting a phantom divergence.
    """
    try:
        sweep1 = world.worker_snapshots()
    except Exception:  # noqa: BLE001 — unreachable worker mid-chaos
        return SKIP
    stats = world.stats()
    answered_by = stats.get("fleet", {}).get("answered_by")
    try:
        sweep2 = world.worker_snapshots()
    except Exception:  # noqa: BLE001
        return SKIP
    if set(sweep1) != set(sweep2) or len(sweep1) != world.workers:
        return SKIP
    for shard in sweep1:
        if shard == answered_by:
            continue
        if sweep1[shard].get("as_of") != sweep2[shard].get("as_of"):
            return SKIP  # a peer mutated mid-comparison: torn read
    counters1 = {
        shard: dict(reply.get("snapshot", {}).get("counters", {}))
        for shard, reply in sweep1.items()
    }
    if answered_by in counters1:
        answering2 = dict(sweep2[answered_by].get("snapshot", {}).get("counters", {}))
        for name in MERGE_COMPARED_COUNTERS:
            if counters1[answered_by].get(name, 0) != answering2.get(name, 0):
                return SKIP  # the answering worker took journey traffic mid-scrape
    merged = stats.get("counters", {})
    for name in MERGE_COMPARED_COUNTERS:
        total = sum(counters.get(name, 0) for counters in counters1.values())
        if merged.get(name, 0) != total:
            return {
                "counter": name,
                "merged_stats_value": merged.get(name, 0),
                "sum_of_worker_snapshots": total,
                "per_worker": {s: c.get(name, 0) for s, c in counters1.items()},
            }
    return True


# -- catalog -----------------------------------------------------------------


def default_invariants() -> List[Invariant]:
    """The full catalog, ordered cheapest-first."""
    return [
        Invariant(
            "envelope.v1_contract", check_envelope_v1,
            description="every JSON response is a well-formed v1 envelope",
        ),
        Invariant(
            "http.request_id_echoed", check_request_id_echoed,
            description="X-Request-Id round-trips verbatim",
        ),
        Invariant(
            "cache.source_field_valid", check_source_field_valid,
            description="heavy 200s carry source in {lru, computed, coalesced}",
        ),
        Invariant(
            "backpressure.contract", check_backpressure_contract,
            description="429s are structured and the overload counter accounts for them",
        ),
        Invariant(
            "drain.contract", check_drain_contract,
            description="draining: JSON 503s with code=draining, /metrics stays live",
        ),
        Invariant(
            "vitals.sane", check_service_vitals_sane,
            severity=WARNING,
            description="in-flight/queue/uptime levels stay physical",
            requires=frozenset({"accepting"}),
        ),
        Invariant(
            "log.access_log_complete", check_access_log_complete,
            description="one access-log line per answered request, status+route agree",
            requires=frozenset({"accepting", "stable_fleet"}),
        ),
        Invariant(
            "counters.requests_match_log", check_requests_counter_matches_log,
            description="per route: client calls == /stats counter == access-log lines",
            requires=frozenset({"accepting", "stable_fleet"}),
        ),
        Invariant(
            "counters.cache_accounting", check_cache_accounting,
            description="hits+misses+coalesced == successful requests per cache",
            requires=frozenset({"accepting", "stable_fleet"}),
        ),
        Invariant(
            "counters.learn_accounting", check_learn_accounting,
            description="train 200s == learn.train.requests == log; fits == model misses",
            requires=frozenset({"accepting", "stable_fleet"}),
        ),
        Invariant(
            "counters.coalesce_vs_log", check_coalesce_accounting,
            description="coalesce.hits == coalesced responses, all distinct ids in log",
            requires=frozenset({"accepting", "stable_fleet"}),
        ),
        Invariant(
            "metrics.latency_agreement", check_latency_histogram_agreement,
            description="/metrics bucket deltas match client call counts and bounds",
            requires=frozenset({"accepting", "stable_fleet"}),
        ),
        Invariant(
            "disk.cache_consistent", check_disk_cache_consistent,
            description="stores/misses/bytes counters match files on disk exactly",
            requires=frozenset({"accepting", "stable_fleet", "pristine_cache"}),
        ),
        Invariant(
            "trace.complete", check_trace_complete,
            description="heavy 200 trace ids resolve to one acyclic stitched tree "
                        "(>= 2 pids when proxied; single-worker on fallback)",
            requires=frozenset({"accepting"}),
        ),
        Invariant(
            "fleet.roster_sane", check_fleet_roster_sane,
            description="/fleet accounting closes; every entry carries as_of",
            requires=frozenset({"accepting", "fleet"}),
        ),
        Invariant(
            "fleet.merge_exact", check_fleet_merge_exact,
            description="merged /stats == sum of per-worker snapshots (as_of-guarded)",
            requires=frozenset({"accepting", "stable_fleet", "fleet"}),
        ),
    ]


def sabotage_invariant() -> Invariant:
    """A deliberately wrong expectation (requests counter off by one) —
    proves a violation produces a non-zero exit and a report naming the
    step, the invariant and the divergent values."""

    def check(world: LiveWorld) -> Any:
        counters = world.counters()
        observed = world.counter_delta(counters, "service.requests.artifacts")
        skewed = len(world.calls_for("artifacts")) + 1
        if observed != skewed:
            return {
                "expected_with_injected_skew": skewed,
                "observed_counter_delta": observed,
                "note": "intentional failure injected via --inject-failure",
            }
        return True

    return Invariant(
        "sabotage.skewed_counter", check,
        description="intentionally wrong counter expectation (--inject-failure)",
        requires=frozenset({"accepting", "stable_fleet"}),
    )
