"""Load generator: ``python -m repro.service.loadgen``.

Spawns N client threads, each with its own keep-alive connection,
firing a weighted mix of endpoint calls for a fixed duration::

    python -m repro.service.loadgen --clients 8 --duration 5 \
        --mix artifacts=6,healthz=2,stats=1,benchmarks=1

The report covers client-side truth — req/s, p50/p95/p99 latency,
status and per-endpoint counts, transport errors — plus the server's
own view: coalesce/cache counters read from ``/stats`` before and
after the run, and server-side latency quantiles computed from the
``/metrics`` histogram delta over the same window (client-observed
latency includes the network and client scheduling; the server's
histogram is what the daemon itself experienced — comparing the two
localises where time went).  ``--spawn`` boots a throwaway in-process
server on an ephemeral port first, which makes the module a
self-contained smoke test; ``--spawn --workers N`` boots the
supervised pre-fork fleet as a subprocess instead and the report gains
a per-worker breakdown (the server-side totals and quantiles are
already fleet-exact — the fleet merges them before answering).

Every request carries an ``X-Request-Id`` (generated per request by
:class:`~repro.service.client.ServiceClient`), so any slow outlier in
the report can be chased through the server's ``--log-json`` access
log and its ``GET /trace/{id}`` stitched trace.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import quantile_from_counts
from ..obs.promtext import (
    delta_bucket_counts,
    histogram_bucket_counts,
    parse_exposition,
)
from .client import ServiceClient, ServiceError

#: /metrics family the server-side latency quantiles are read from.
LATENCY_FAMILY = "repro_service_latency_seconds"

DEFAULT_MIX = "artifacts=6,healthz=2,stats=1,benchmarks=1"

#: endpoint name -> request builder ``(client, benchmark, scale, seed) -> (status, body)``
ENDPOINTS: Dict[str, Callable[[ServiceClient, str, int, int], Tuple[int, dict]]] = {
    "healthz": lambda c, n, s, o: c.request_raw("GET", "/healthz"),
    "benchmarks": lambda c, n, s, o: c.request_raw("GET", "/benchmarks"),
    "stats": lambda c, n, s, o: c.request_raw("GET", "/stats"),
    "artifacts": lambda c, n, s, o: c.request_raw(
        "POST", "/artifacts", {"name": n, "scale": s, "seed_offset": o}
    ),
    "predict": lambda c, n, s, o: c.request_raw(
        "POST",
        "/predict",
        {"name": n, "scale": s, "seed_offset": o, "predictor": "profile"},
    ),
    "machine": lambda c, n, s, o: c.request_raw(
        "POST", "/machine", {"name": n, "scale": s, "seed_offset": o}
    ),
    "plan": lambda c, n, s, o: c.request_raw(
        "POST", "/plan", {"name": n, "scale": s, "seed_offset": o}
    ),
}


def parse_mix(spec: str) -> List[Tuple[str, int]]:
    """``"artifacts=6,healthz=2"`` → ``[("artifacts", 6), ("healthz", 2)]``."""
    mix: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight_text = part.partition("=")
        name = name.strip()
        if name not in ENDPOINTS:
            raise ValueError(
                f"unknown endpoint {name!r} in mix; "
                f"known: {', '.join(sorted(ENDPOINTS))}"
            )
        try:
            weight = int(weight_text) if weight_text else 1
        except ValueError:
            raise ValueError(f"bad weight in mix entry {part!r}") from None
        if weight < 0:
            raise ValueError(f"negative weight in mix entry {part!r}")
        if weight:
            mix.append((name, weight))
    if not mix:
        raise ValueError(f"mix {spec!r} selects no endpoints")
    return mix


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(fraction * len(sorted_values))))
    return sorted_values[rank]


#: Slowest requests reported with their trace ids (and, when the
#: fleet's flight recorders retained them, their stitched span trees).
TOP_SLOWEST = 5


@dataclass
class _WorkerResult:
    latencies: List[float] = field(default_factory=list)
    statuses: Dict[int, int] = field(default_factory=dict)
    endpoints: Dict[str, int] = field(default_factory=dict)
    transport_errors: int = 0
    #: (latency seconds, endpoint, trace id) for this worker's slowest
    #: requests — bounded, re-trimmed as it grows
    slowest: List[Tuple[float, str, str]] = field(default_factory=list)

    def note_slow(self, latency: float, endpoint: str, trace_id: Optional[str]) -> None:
        if not trace_id:
            return
        self.slowest.append((latency, endpoint, trace_id))
        if len(self.slowest) > 4 * TOP_SLOWEST:
            self.slowest.sort(reverse=True)
            del self.slowest[TOP_SLOWEST:]


def _worker(
    host: str,
    port: int,
    duration: float,
    mix: List[Tuple[str, int]],
    benchmark: str,
    scale: int,
    seed_offset: int,
    seed_jitter: int,
    rng: random.Random,
    barrier: threading.Barrier,
    result: _WorkerResult,
) -> None:
    names = [name for name, _ in mix]
    weights = [weight for _, weight in mix]
    with ServiceClient(host, port, timeout=30.0) as client:
        try:
            barrier.wait(timeout=10.0)
        except threading.BrokenBarrierError:
            return
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline:
            endpoint = rng.choices(names, weights)[0]
            offset = seed_offset + (rng.randint(0, seed_jitter) if seed_jitter else 0)
            started = time.perf_counter()
            try:
                status, _ = ENDPOINTS[endpoint](client, benchmark, scale, offset)
            except OSError:
                result.transport_errors += 1
                client.close()
                continue
            latency = time.perf_counter() - started
            result.latencies.append(latency)
            result.statuses[status] = result.statuses.get(status, 0) + 1
            result.endpoints[endpoint] = result.endpoints.get(endpoint, 0) + 1
            result.note_slow(latency, endpoint, client.last_trace_id)


def _server_counters(host: str, port: int) -> Dict[str, float]:
    try:
        with ServiceClient(host, port, timeout=5.0) as client:
            return dict(client.stats().get("counters", {}))
    except (ServiceError, OSError):
        return {}


def _fleet_view(host: str, port: int) -> Optional[dict]:
    """One ``GET /fleet`` roster scrape, or None if unavailable."""
    try:
        with ServiceClient(host, port, timeout=5.0) as client:
            return client.request("GET", "/fleet")
    except (ServiceError, OSError):
        return None


def _server_latency_buckets(host: str, port: int) -> Dict[float, float]:
    """Non-cumulative latency bucket counts from one ``/metrics`` scrape."""
    try:
        with ServiceClient(host, port, timeout=5.0) as client:
            parsed = parse_exposition(client.metrics())
    except (ServiceError, OSError, ValueError):
        return {}
    return histogram_bucket_counts(parsed, LATENCY_FAMILY)


def server_quantiles_ms(
    before: Dict[float, float], after: Dict[float, float]
) -> Dict[str, float]:
    """Server-side latency quantiles (ms) over the scrape interval.

    The delta of two non-cumulative bucket-count scrapes is itself a
    histogram of exactly the requests that completed in between; its
    quantiles carry the same ~5% relative-error bound as the server's
    own (see :mod:`repro.obs.hist`).
    """
    delta = delta_bucket_counts(before, after)
    samples = sum(count for _, count in delta)
    return {
        "samples": int(samples),
        "p50_ms": round(quantile_from_counts(delta, 0.50) * 1e3, 3),
        "p95_ms": round(quantile_from_counts(delta, 0.95) * 1e3, 3),
        "p99_ms": round(quantile_from_counts(delta, 0.99) * 1e3, 3),
    }


def _slowest_traces(
    host: str, port: int, results: List[_WorkerResult]
) -> List[dict]:
    """The run's :data:`TOP_SLOWEST` slowest traced requests, each
    resolved against ``GET /trace/{id}`` for its stitched span tree.

    A trace the flight recorders dropped (tail-sampling) or already
    evicted reports ``retained: false`` — the id is still printed, it
    just has no tree to show.
    """
    candidates = sorted(
        (entry for result in results for entry in result.slowest), reverse=True
    )[:TOP_SLOWEST]
    if not candidates:
        return []
    entries = []
    with ServiceClient(host, port, timeout=10.0) as client:
        for latency, endpoint, trace_id in candidates:
            entry = {
                "latency_ms": round(latency * 1e3, 3),
                "endpoint": endpoint,
                "trace_id": trace_id,
                "retained": False,
            }
            try:
                doc = client.request("GET", f"/trace/{trace_id}")
            except (ServiceError, OSError):
                doc = None
            if doc is not None:
                entry["retained"] = True
                entry["workers"] = doc.get("workers", [])
                entry["tree"] = doc.get("tree", [])
            entries.append(entry)
    return entries


def run_load(
    host: str,
    port: int,
    clients: int = 4,
    duration: float = 5.0,
    mix: str = DEFAULT_MIX,
    benchmark: str = "compress",
    scale: int = 1,
    seed_offset: int = 0,
    seed: int = 0,
    seed_jitter: int = 0,
) -> dict:
    """Drive the service and return the aggregated report dict.

    *seed_jitter* > 0 spreads each request's ``seed_offset`` uniformly
    over ``[seed_offset, seed_offset + seed_jitter]`` — mostly-cold keys
    that force real computation, for workloads meant to measure compute
    latency rather than cache hits.
    """
    parsed_mix = parse_mix(mix)
    before = _server_counters(host, port)
    buckets_before = _server_latency_buckets(host, port)
    # Workers block on a barrier (shared with this thread) until every
    # client thread is up, then each runs for *duration* — so the
    # measured window contains no thread-spawn skew.
    barrier = threading.Barrier(clients + 1)
    results = [_WorkerResult() for _ in range(clients)]
    threads = [
        threading.Thread(
            target=_worker,
            args=(
                host,
                port,
                duration,
                parsed_mix,
                benchmark,
                scale,
                seed_offset,
                seed_jitter,
                random.Random(seed * 1000 + index),
                barrier,
                results[index],
            ),
            name=f"loadgen-{index}",
            daemon=True,
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=10.0)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=duration + 30)
    elapsed = time.perf_counter() - started
    after = _server_counters(host, port)
    buckets_after = _server_latency_buckets(host, port)
    fleet_doc = _fleet_view(host, port)

    latencies = sorted(
        latency for result in results for latency in result.latencies
    )
    statuses: Dict[int, int] = {}
    endpoints: Dict[str, int] = {}
    transport_errors = 0
    for result in results:
        transport_errors += result.transport_errors
        for status, count in result.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
        for endpoint, count in result.endpoints.items():
            endpoints[endpoint] = endpoints.get(endpoint, 0) + count
    requests = len(latencies)
    five_xx = sum(count for status, count in statuses.items() if status >= 500)

    def delta(counter: str) -> float:
        return after.get(counter, 0) - before.get(counter, 0)

    coalesce_hits = delta("service.coalesce.hits")
    server_requests = delta("service.requests")
    report = {
        "host": host,
        "port": port,
        "clients": clients,
        "duration_seconds": round(elapsed, 3),
        "mix": mix,
        "benchmark": benchmark,
        "scale": scale,
        "seed_offset": seed_offset,
        "requests": requests,
        "req_per_s": round(requests / elapsed, 1) if elapsed > 0 else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "p95_ms": round(percentile(latencies, 0.95) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
        "max_ms": round(latencies[-1] * 1e3, 3) if latencies else 0.0,
        "statuses": {str(status): count for status, count in sorted(statuses.items())},
        "endpoints": dict(sorted(endpoints.items())),
        "five_xx": five_xx,
        "transport_errors": transport_errors,
        "server": {
            "requests": server_requests,
            "coalesce_hits": coalesce_hits,
            "coalesce_hit_rate": round(coalesce_hits / server_requests, 6)
            if server_requests
            else 0.0,
            "overload_rejections": delta("service.rejected.overload"),
            "latency": server_quantiles_ms(buckets_before, buckets_after),
        },
    }
    report["slowest"] = _slowest_traces(host, port, results)
    if fleet_doc is not None and fleet_doc.get("workers", 1) > 1:
        # Against a fleet, /stats and /metrics already answer with the
        # exact cross-worker merge, so every "server" figure above is
        # fleet-wide; this block adds the per-worker breakdown.
        report["fleet"] = {
            "workers": fleet_doc.get("workers"),
            "alive": fleet_doc.get("alive"),
            "unreachable": fleet_doc.get("unreachable", []),
            "proxied": delta("service.shard.proxied"),
            "fallback_local": delta("service.shard.fallback_local"),
            "per_worker": fleet_doc.get("fleet", []),
        }
    return report


def format_report(report: dict) -> str:
    lines = [
        f"loadgen: {report['requests']} requests in "
        f"{report['duration_seconds']}s from {report['clients']} client(s) "
        f"→ {report['req_per_s']} req/s",
        f"latency: p50 {report['p50_ms']}ms, p95 {report['p95_ms']}ms, "
        f"p99 {report['p99_ms']}ms, max {report['max_ms']}ms",
        "statuses: "
        + (
            ", ".join(f"{s}×{c}" for s, c in report["statuses"].items())
            or "(none)"
        )
        + f"; transport errors: {report['transport_errors']}",
        "endpoints: "
        + (
            ", ".join(f"{e}×{c}" for e, c in report["endpoints"].items())
            or "(none)"
        ),
        f"server: {report['server']['requests']:.0f} requests, "
        f"{report['server']['coalesce_hits']:.0f} coalesce hit(s) "
        f"(rate {report['server']['coalesce_hit_rate']}), "
        f"{report['server']['overload_rejections']:.0f} overload rejection(s)",
    ]
    server_latency = report["server"].get("latency", {})
    if server_latency.get("samples"):
        lines.append(
            f"server latency (/metrics delta, {server_latency['samples']} "
            f"sample(s)): p50 {server_latency['p50_ms']}ms, "
            f"p95 {server_latency['p95_ms']}ms, p99 {server_latency['p99_ms']}ms"
        )
    fleet = report.get("fleet")
    if fleet:
        per_worker = ", ".join(
            f"shard {entry.get('shard')} (pid {entry.get('pid')}): "
            f"{entry.get('requests', 0)} req"
            for entry in fleet.get("per_worker", [])
        )
        lines.append(
            f"fleet: {fleet['alive']}/{fleet['workers']} worker(s) alive, "
            f"{fleet['proxied']:.0f} proxied, "
            f"{fleet['fallback_local']:.0f} local fallback(s); {per_worker}"
        )
    slowest = report.get("slowest", [])
    if slowest:
        lines.append(f"slowest {len(slowest)} traced request(s):")
        for entry in slowest:
            suffix = (
                f" workers={entry.get('workers')}"
                if entry["retained"]
                else " (not retained by the flight recorder)"
            )
            lines.append(
                f"  {entry['latency_ms']}ms {entry['endpoint']} "
                f"trace={entry['trace_id']}{suffix}"
            )
            for tree_line in entry.get("tree", []):
                lines.append(f"    {tree_line}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Generate load against a running prediction service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument("--clients", type=int, default=4, help="worker threads")
    parser.add_argument(
        "--duration", type=float, default=5.0, help="seconds of sustained load"
    )
    parser.add_argument(
        "--mix",
        default=DEFAULT_MIX,
        help="comma-separated endpoint=weight pairs "
        f"(endpoints: {', '.join(sorted(ENDPOINTS))})",
    )
    parser.add_argument("--benchmark", default="compress")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--seed-offset", type=int, default=0)
    parser.add_argument(
        "--seed-jitter",
        type=int,
        default=0,
        help="spread per-request seed_offset over [seed-offset, "
        "seed-offset + N] (cold keys: measures compute, not cache)",
    )
    parser.add_argument(
        "--warmup-keys",
        type=int,
        default=0,
        help="pre-warm N predict keys (one predict_many batch over "
        "[seed-offset, seed-offset + N)) before the measured window",
    )
    parser.add_argument("--seed", type=int, default=0, help="mix-selection RNG seed")
    parser.add_argument("--json", metavar="FILE", help="also write the report as JSON")
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="boot a throwaway server on an ephemeral port first "
        "(in-process, or a subprocess fleet with --workers > 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="with --spawn: worker processes for the throwaway server "
        "(> 1 spawns the supervised fleet and reports per-worker load)",
    )
    options = parser.parse_args(argv)
    if options.clients < 1:
        parser.error("--clients must be >= 1")
    if options.duration <= 0:
        parser.error("--duration must be > 0")
    try:
        parse_mix(options.mix)
    except ValueError as error:
        parser.error(str(error))

    server = None
    fleet_handle = None
    host, port = options.host, options.port
    if options.spawn and options.workers > 1:
        # A fleet is processes, not threads — always a subprocess (the
        # supervisor must fork from a single-threaded parent, and this
        # process is about to run N client threads).
        from .supervisor import spawn_fleet

        fleet_handle = spawn_fleet(workers=options.workers, threads=4)
        host, port = fleet_handle.host, fleet_handle.port
        print(
            f"spawned fleet of {options.workers} worker(s) on port {port} "
            f"(pids {fleet_handle.pids})",
            file=sys.stderr,
        )
    elif options.spawn:
        from .server import ServiceConfig, start_background

        server, _ = start_background(ServiceConfig(host="127.0.0.1", port=0))
        host, port = "127.0.0.1", server.port
        print(f"spawned in-process server on port {port}", file=sys.stderr)
    try:
        if options.warmup_keys > 0:
            # One keep-alive batch outside the measured window, so the
            # run measures warm-cache latency instead of first-compute.
            keys = [
                {
                    "name": options.benchmark,
                    "predictor": "profile",
                    "scale": options.scale,
                    "seed_offset": options.seed_offset + index,
                }
                for index in range(options.warmup_keys)
            ]
            with ServiceClient(host, port, timeout=120.0) as warm_client:
                warmed = warm_client.predict_many(keys)
            print(f"warmed {len(warmed)} predict key(s)", file=sys.stderr)
        report = run_load(
            host,
            port,
            clients=options.clients,
            duration=options.duration,
            mix=options.mix,
            benchmark=options.benchmark,
            scale=options.scale,
            seed_offset=options.seed_offset,
            seed=options.seed,
            seed_jitter=options.seed_jitter,
        )
    finally:
        if server is not None:
            from .server import shutdown_gracefully

            shutdown_gracefully(server)
        if fleet_handle is not None:
            fleet_handle.stop()
    print(format_report(report))
    if options.json:
        with open(options.json, "w") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"report written to {options.json}", file=sys.stderr)
    return 0 if report["requests"] and not report["five_xx"] else 1


if __name__ == "__main__":
    sys.exit(main())
