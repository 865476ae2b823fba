"""Bench smoke: prediction-service throughput and coalescing.

Standalone script so CI can run it as a gate.  It boots an in-process
service on an ephemeral port, then runs these phases:

1. **Coalesce burst** — N barrier-synchronised clients POST the same
   ``/artifacts`` request for a key the server has never seen, so all
   but the leader must ride the single-flight and the coalesce-hit
   counter provably moves.
2. **Sustained load** — the stock load generator drives the default
   endpoint mix for ``--duration`` seconds against the now-warm cache
   and reports req/s and latency percentiles.
3. **Latency agreement** — a compute-dominated run (cold keys via seed
   jitter, artifacts only) where the server's own ``/metrics`` latency
   histogram must agree with the client-observed p95 within
   ``--agreement-tolerance`` (default 25%).  Cold keys make the
   interpreter—not fixed per-request overhead—the latency, so the two
   views measure the same thing; disagreement means the histogram (or
   the scrape-delta quantile math) is lying.

4. **Fleet scaling curve** — the supervised pre-fork fleet is spawned
   as a subprocess at 1, 2 and 4 workers and driven with
   compute-bound cold keys (artifacts only, wide seed jitter); the
   report records req/s and fleet-merged p95 per worker count plus the
   4-vs-1 speedup.  The speedup gate is CPU-aware: near-linear (≥ 3×
   at 4 workers) is only demanded when the machine actually has ≥ 4
   CPUs; below that the gate relaxes (with a loud note in the report)
   because four processes cannot beat one CPU.  The 4-worker run must
   also return zero 5xx and its fleet-merged ``/metrics`` p95 must
   agree with the client-observed p95 within the same tolerance as
   phase 3 — the exactness claim for cross-worker histogram merging,
   checked under load.

The combined report goes to ``BENCH_service.json`` and the run exits
non-zero when throughput falls below ``--min-rps``, any 5xx is
returned, no request ever coalesced, the server/client p95s disagree,
or the fleet fails its scaling gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        --output BENCH_service.json [--clients 6] [--duration 3] \
        [--min-rps 200] [--benchmark compress] [--skip-scaling]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.service import (
    ServiceClient,
    ServiceConfig,
    run_load,
    shutdown_gracefully,
    start_background,
)

#: seed_offset for the burst phase — outside the range any test or the
#: sustained phase uses, so the server's LRU is guaranteed cold for it.
BURST_SEED_OFFSET = 7321

#: seed_offset base for the predict-batch phase — disjoint from every
#: other phase so the first pass is provably cold, the replay warm.
BATCH_SEED_BASE = 9_000

#: seed_offset base + jitter for the agreement phase — far from both
#: the burst key and the sustained phase, and wide enough that nearly
#: every request computes.
AGREEMENT_SEED_BASE = 100_000
AGREEMENT_SEED_JITTER = 50_000

#: agreement phase is skipped (not failed) below this many completed
#: requests — quantiles over a handful of samples are noise.
AGREEMENT_MIN_REQUESTS = 50

#: fleet sizes the scaling phase measures, in order; the first is the
#: baseline the speedup is computed against.
SCALING_WORKER_COUNTS = (1, 2, 4)

#: seed_offset base for the trace-overhead phase — disjoint from every
#: other phase's key range.
TRACE_SEED_BASE = 3_000_000

#: The always-on flight recorder may cost at most 5% of warm-path
#: throughput: req/s(tracing on) / req/s(tracing off) must stay above.
TRACE_OVERHEAD_MIN_RATIO = 0.95

#: Alternating measurement rounds in the trace-overhead phase (each
#: round boots one traced and one untraced server).
TRACE_OVERHEAD_ROUNDS = 3

#: seed_offset layout for the scaling phase: far above every other
#: phase, strided per run so no two worker counts share a key.
SCALING_SEED_BASE = 1_000_000
SCALING_SEED_STRIDE = 200_000
SCALING_SEED_JITTER = 50_000


def required_speedup(cpu_count: int) -> float:
    """The 4-vs-1-worker speedup floor this machine can honestly owe.

    Near-linear scaling (≥ 3× at 4 workers) is only physically possible
    with ≥ 4 CPUs; on smaller boxes the gate degrades to "the fleet
    must not collapse" so the bench stays runnable everywhere while CI
    hardware enforces the real bar.
    """
    if cpu_count >= 4:
        return 3.0
    if cpu_count >= 2:
        return 1.2
    return 0.5


def scaling_curve(
    benchmark: str, clients: int, duration: float, tolerance: float
) -> dict:
    """Throughput at each fleet size, with compute-bound cold keys.

    Every fleet is a *subprocess* (this process runs client threads —
    it must never fork a fleet itself); cold keys force real
    computation so throughput scales with worker processes, not with
    thread scheduling inside one GIL.
    """
    from repro.service.supervisor import spawn_fleet

    cpu_count = os.cpu_count() or 1
    rows = []
    for index, workers in enumerate(SCALING_WORKER_COUNTS):
        print(f"scaling phase: {workers} worker(s)...")
        handle = spawn_fleet(workers=workers, threads=2)
        try:
            load = run_load(
                handle.host,
                handle.port,
                clients=clients,
                duration=duration,
                mix="artifacts=1",
                benchmark=benchmark,
                seed_offset=SCALING_SEED_BASE + index * SCALING_SEED_STRIDE,
                seed_jitter=SCALING_SEED_JITTER,
            )
        finally:
            handle.stop()
        rows.append(
            {
                "workers": workers,
                "req_per_s": load["req_per_s"],
                "p95_ms": load["p95_ms"],
                "server_p95_ms": load["server"]["latency"].get("p95_ms", 0.0),
                "requests": load["requests"],
                "five_xx": load["five_xx"],
                "transport_errors": load["transport_errors"],
                "agreement": latency_agreement(load, tolerance),
            }
        )
    baseline = rows[0]["req_per_s"] or 1.0
    for row in rows:
        row["speedup"] = round(row["req_per_s"] / baseline, 3)
    required = required_speedup(cpu_count)
    result = {
        "cpu_count": cpu_count,
        "required_speedup": required,
        "worker_counts": rows,
        "speedup": rows[-1]["speedup"],
        "five_xx": sum(row["five_xx"] for row in rows),
    }
    if cpu_count < 4:
        result["note"] = (
            f"only {cpu_count} CPU(s): near-linear scaling is physically "
            f"impossible here, gate relaxed to {required}x (3.0x needs >= 4 CPUs)"
        )
    return result


def _process_tree_cpu_seconds(root_pid: int) -> Optional[float]:
    """Total user+system CPU seconds of *root_pid* and its descendants.

    Reads ``/proc`` directly (utime+stime from ``/proc/<pid>/stat``,
    children from ``/proc/<pid>/task/<pid>/children``); returns ``None``
    where ``/proc`` is unavailable so the caller can fall back to
    wall-clock throughput.
    """
    if not os.path.isdir(f"/proc/{root_pid}"):
        return None
    ticks = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/stat") as stream:
                # field 2 (comm) may contain spaces — split after the
                # closing paren; utime/stime are then fields 11/12
                fields = stream.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
            with open(f"/proc/{pid}/task/{pid}/children") as stream:
                todo.extend(int(child) for child in stream.read().split())
        except (OSError, IndexError, ValueError):
            continue
    return ticks / os.sysconf("SC_CLK_TCK")


def traced_path_cost_us(samples: int = 5, iterations: int = 20000) -> float:
    """Directly time the per-request work ``--trace-off`` skips.

    One iteration is the exact warm-path tracing sequence the server
    runs per request: start a trace, open/close the ``service.request``
    span, end the trace, and feed the flight recorder's tail-sampling
    decision.  A tight loop resolves this ~10us cost to fractions of a
    microsecond — differencing two independently-noisy end-to-end
    throughput numbers cannot (see :func:`trace_overhead`).
    """
    from repro.obs import OBS
    from repro.obs.flight import FlightRecorder

    recorder = FlightRecorder()

    def one_request() -> None:
        trace = OBS.start_trace()
        trace.notes["request_id"] = "bench"
        try:
            with OBS.span(
                "service.request", method="POST", route="/artifacts",
                request_id="bench",
            ):
                pass
        finally:
            recorder.record(
                OBS.end_trace(), 200, "/artifacts", 0.0004,
                request_id="bench", shard=0,
            )

    for _ in range(iterations):  # warm caches/allocator before timing
        one_request()
    timings = []
    for _ in range(max(1, samples)):
        began = time.perf_counter()
        for _ in range(iterations):
            one_request()
        timings.append((time.perf_counter() - began) / iterations * 1e6)
    return statistics.median(timings)


def trace_overhead(
    benchmark: str, clients: int, duration: float, rounds: int = TRACE_OVERHEAD_ROUNDS
) -> dict:
    """Warm-path cost of the always-on flight recorder, on vs off.

    Each measurement spawns a fresh single-worker ``serve`` subprocess —
    with ``--trace-off`` or the always-on tracing default — and drives
    the identical warm-key workload.  Warm keys make every request an LRU hit, so fixed
    per-request cost — exactly where the tracing layer lives —
    dominates and the comparison is maximally sensitive.

    The **gated** metric is a paired estimate: the tracing tax measured
    directly by :func:`traced_path_cost_us` (the exact code path the
    ``--trace-off`` baseline skips, resolved to sub-microsecond in a
    tight loop) normalised by the measured untraced server CPU per
    request — ``ratio = t_req / (t_req + t_trace)``, the req/s ratio of
    a CPU-bound warm path.  Machine-speed noise moves ``t_req`` and
    ``t_trace`` proportionally, so it cancels in the ratio; on shared
    CI boxes, identical server configs measure 30%+ apart end to end,
    so differencing two such numbers can never police a 5% gate.  The
    end-to-end A/B rounds (alternating on/off order) still run and are
    reported — wall req/s and server-tree CPU per request from
    ``/proc`` — as corroborating data.
    """
    from repro.service.supervisor import spawn_fleet

    def measure(trace_off: bool) -> Tuple[dict, Optional[float]]:
        extra = ["--trace-off"] if trace_off else []
        handle = spawn_fleet(workers=1, threads=2, extra_args=extra)
        try:
            # Warm-up pass: every server must serve its measured window
            # entirely from the LRU.
            run_load(
                handle.host,
                handle.port,
                clients=clients,
                duration=max(0.8, duration / 2),
                benchmark=benchmark,
                seed_offset=TRACE_SEED_BASE,
            )
            cpu_before = _process_tree_cpu_seconds(handle.process.pid)
            load = run_load(
                handle.host,
                handle.port,
                clients=clients,
                duration=duration,
                benchmark=benchmark,
                seed_offset=TRACE_SEED_BASE,
            )
            cpu_after = _process_tree_cpu_seconds(handle.process.pid)
        finally:
            handle.stop()
        cpu_per_req = None
        if cpu_before is not None and cpu_after is not None and load["requests"]:
            cpu_per_req = (cpu_after - cpu_before) / load["requests"]
        return load, cpu_per_req

    rounds = max(1, int(rounds))
    totals = {
        "trace_off": {"req_per_s": 0.0, "requests": 0, "five_xx": 0, "p95_ms": 0.0},
        "trace_on": {"req_per_s": 0.0, "requests": 0, "five_xx": 0, "p95_ms": 0.0},
    }
    round_ratios: List[float] = []
    cpu_us = {"trace_off": [], "trace_on": []}
    for round_index in range(rounds):
        order = (True, False) if round_index % 2 == 0 else (False, True)
        pair: Dict[str, Optional[float]] = {}
        for trace_off in order:
            label = "trace_off" if trace_off else "trace_on"
            load, cpu_per_req = measure(trace_off)
            row = totals[label]
            row["req_per_s"] += load["req_per_s"]
            row["requests"] += load["requests"]
            row["five_xx"] += load["five_xx"]
            row["p95_ms"] = max(row["p95_ms"], load["p95_ms"])
            pair[label] = cpu_per_req if cpu_per_req else None
            if cpu_per_req:
                cpu_us[label].append(round(cpu_per_req * 1e6, 2))
        if pair.get("trace_off") and pair.get("trace_on"):
            round_ratios.append(pair["trace_off"] / pair["trace_on"])
    trace_us = round(traced_path_cost_us(), 3)
    if cpu_us["trace_off"]:
        metric = "paired_cpu_estimate"
        request_us = statistics.median(cpu_us["trace_off"])
    else:
        # /proc unavailable: fall back to the client-observed wall time
        # per request of the untraced runs (inflated by socket RTT, so
        # the estimate errs permissive — still anchored to a real
        # request cost).
        metric = "paired_wall_estimate"
        off = totals["trace_off"]
        # mean client-observed latency: concurrent streams / throughput
        rps = off["req_per_s"] / max(1, rounds)
        request_us = 1e6 * clients / rps if rps else 1e6
    ratio = round(request_us / (request_us + trace_us), 4)
    return {
        "trace_off": totals["trace_off"],
        "trace_on": totals["trace_on"],
        "rounds": rounds,
        "metric": metric,
        "traced_path_us": trace_us,
        "request_us": round(request_us, 2),
        "round_ratios": [round(value, 4) for value in round_ratios],
        "cpu_us_per_request": cpu_us,
        "ratio": ratio,
        "min_ratio": TRACE_OVERHEAD_MIN_RATIO,
        "five_xx": totals["trace_off"]["five_xx"] + totals["trace_on"]["five_xx"],
    }


def latency_agreement(sustained_like: dict, tolerance: float) -> dict:
    """Compare client p95 with the server's ``/metrics``-delta p95."""
    client_p95 = sustained_like["p95_ms"]
    server = sustained_like["server"].get("latency", {})
    server_p95 = server.get("p95_ms", 0.0)
    requests = sustained_like["requests"]
    checked = requests >= AGREEMENT_MIN_REQUESTS and client_p95 > 0
    diff = abs(client_p95 - server_p95) / client_p95 if client_p95 else 0.0
    return {
        "requests": requests,
        "client_p95_ms": client_p95,
        "server_p95_ms": server_p95,
        "relative_difference": round(diff, 4),
        "tolerance": tolerance,
        "checked": checked,
        "agrees": (diff <= tolerance) if checked else True,
    }


def _counters(host: str, port: int) -> Dict[str, float]:
    with ServiceClient(host, port, timeout=5.0) as client:
        return dict(client.stats().get("counters", {}))


def coalesce_burst(
    host: str, port: int, benchmark: str, clients: int
) -> dict:
    """Fire *clients* identical cold-key requests at the same instant."""
    before = _counters(host, port)
    barrier = threading.Barrier(clients)
    statuses: List[int] = []
    lock = threading.Lock()

    def worker() -> None:
        with ServiceClient(host, port, timeout=30.0) as client:
            barrier.wait(timeout=10.0)
            status, _ = client.request_raw(
                "POST",
                "/artifacts",
                {"name": benchmark, "scale": 1, "seed_offset": BURST_SEED_OFFSET},
            )
            with lock:
                statuses.append(status)

    threads = [
        threading.Thread(target=worker, name=f"burst-{index}", daemon=True)
        for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    elapsed = time.perf_counter() - started
    after = _counters(host, port)

    def delta(counter: str) -> float:
        return after.get(counter, 0) - before.get(counter, 0)

    return {
        "clients": clients,
        "seconds": round(elapsed, 3),
        "statuses": sorted(statuses),
        "computed": delta("service.cache.artifacts.misses"),
        "coalesce_hits": delta("service.coalesce.hits"),
    }


def predict_batch(host: str, port: int, benchmark: str, count: int = 8) -> dict:
    """Cold batch then warm replay over one keep-alive connection.

    Exercises :meth:`ServiceClient.predict_many` end to end: the replay
    of an identical batch must come back entirely from the LRU.
    """
    keys = [
        {"name": benchmark, "predictor": "profile", "seed_offset": BATCH_SEED_BASE + i}
        for i in range(count)
    ]
    with ServiceClient(host, port, timeout=120.0) as client:
        started = time.perf_counter()
        client.predict_many(keys)
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        warm = client.predict_many(keys)
        warm_seconds = time.perf_counter() - started
    return {
        "keys": count,
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "warm_lru": sum(1 for payload in warm if payload.get("source") == "lru"),
        "speedup": round(cold_seconds / warm_seconds, 1) if warm_seconds else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_service.json")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--benchmark", default="compress")
    parser.add_argument(
        "--min-rps",
        type=float,
        default=200.0,
        help="fail when sustained req/s falls below this floor",
    )
    parser.add_argument(
        "--agreement-tolerance",
        type=float,
        default=0.25,
        help="max relative difference between client p95 and the "
        "server's /metrics-delta p95 in the agreement phase",
    )
    parser.add_argument(
        "--skip-scaling",
        action="store_true",
        help="skip the fleet scaling phase (quick single-process runs)",
    )
    args = parser.parse_args(argv)

    # A private artifact cache dir guarantees the burst key is cold —
    # its computation takes tens of milliseconds, so every follower has
    # time to latch onto the leader's flight.
    cache_root = tempfile.mkdtemp(prefix="bench-service-cache-")
    os.environ["REPRO_CACHE_DIR"] = cache_root

    server, _ = start_background(ServiceConfig(host="127.0.0.1", port=0))
    host, port = "127.0.0.1", server.port
    print(f"service on port {port}; burst phase ({args.clients} clients)...")
    try:
        burst = coalesce_burst(host, port, args.benchmark, args.clients)
        print(
            f"burst: {len(burst['statuses'])} identical requests -> "
            f"{burst['computed']:.0f} computation(s), "
            f"{burst['coalesce_hits']:.0f} coalesce hit(s) "
            f"in {burst['seconds']}s"
        )
        print("predict-batch phase (predict_many: cold batch + warm replay)...")
        batch = predict_batch(host, port, args.benchmark)
        print(
            f"batch: {batch['keys']} keys cold in {batch['cold_seconds']}s, "
            f"warm replay in {batch['warm_seconds']}s "
            f"({batch['warm_lru']} lru hit(s))"
        )
        print(f"sustained phase ({args.duration}s)...")
        sustained = run_load(
            host,
            port,
            clients=args.clients,
            duration=args.duration,
            benchmark=args.benchmark,
        )
        print("latency-agreement phase (cold keys, compute-dominated)...")
        agreement_load = run_load(
            host,
            port,
            clients=args.clients,
            duration=max(args.duration, 3.0),
            mix="artifacts=1",
            benchmark=args.benchmark,
            seed_offset=AGREEMENT_SEED_BASE,
            seed_jitter=AGREEMENT_SEED_JITTER,
        )
        scaling = None
        if not args.skip_scaling:
            # Fleets run as subprocesses; they inherit REPRO_CACHE_DIR,
            # so cold keys stay cold inside the same private cache.
            scaling = scaling_curve(
                args.benchmark,
                args.clients,
                max(args.duration, 3.0),
                args.agreement_tolerance,
            )
        print("trace-overhead phase (flight recorder on vs --trace-off)...")
        overhead = trace_overhead(
            args.benchmark, args.clients, max(args.duration, 2.0)
        )
    finally:
        shutdown_gracefully(server)
        shutil.rmtree(cache_root, ignore_errors=True)

    coalesce_hits = burst["coalesce_hits"] + sustained["server"]["coalesce_hits"]
    total_requests = len(burst["statuses"]) + sustained["requests"]
    agreement = latency_agreement(agreement_load, args.agreement_tolerance)
    report = {
        "benchmark": args.benchmark,
        "req_per_s": sustained["req_per_s"],
        "p50_ms": sustained["p50_ms"],
        "p95_ms": sustained["p95_ms"],
        "p99_ms": sustained["p99_ms"],
        "five_xx": sustained["five_xx"]
        + agreement_load["five_xx"]
        + sum(1 for status in burst["statuses"] if status >= 500),
        "coalesce_hits": coalesce_hits,
        "coalesce_hit_rate": round(coalesce_hits / total_requests, 6)
        if total_requests
        else 0.0,
        "min_rps": args.min_rps,
        "burst": burst,
        "predict_batch": batch,
        "sustained": sustained,
        "agreement": agreement,
        "trace_overhead": overhead,
        "trace_overhead_ratio": overhead["ratio"],
    }
    report["five_xx"] += overhead["five_xx"]
    if scaling is not None:
        report["five_xx"] += scaling["five_xx"]
        report["scaling"] = scaling
    with open(args.output, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(
        f"sustained {report['req_per_s']} req/s, p50 {report['p50_ms']}ms, "
        f"p99 {report['p99_ms']}ms; coalesce hit rate "
        f"{report['coalesce_hit_rate']} -> {args.output}"
    )
    print(
        f"agreement: client p95 {agreement['client_p95_ms']}ms vs server "
        f"p95 {agreement['server_p95_ms']}ms over {agreement['requests']} "
        f"request(s) ({agreement['relative_difference']:.1%} apart, "
        f"tolerance {agreement['tolerance']:.0%}"
        + ("" if agreement["checked"] else ", too few samples — skipped")
        + ")"
    )
    if scaling is not None:
        curve = ", ".join(
            f"{row['workers']}w: {row['req_per_s']} req/s "
            f"(x{row['speedup']}, p95 {row['p95_ms']}ms)"
            for row in scaling["worker_counts"]
        )
        print(
            f"scaling ({scaling['cpu_count']} CPU(s), gate "
            f"{scaling['required_speedup']}x): {curve}"
        )
        if "note" in scaling:
            print(f"note: {scaling['note']}")
    rounds = overhead["rounds"]
    print(
        f"trace overhead ({overhead['metric']}): ratio {overhead['ratio']}, "
        f"gate >= {overhead['min_ratio']} — traced path "
        f"{overhead['traced_path_us']}us on a {overhead['request_us']}us "
        f"request; A/B wall {overhead['trace_on']['req_per_s'] / rounds:.1f} "
        f"req/s traced vs {overhead['trace_off']['req_per_s'] / rounds:.1f} "
        f"untraced ({rounds} alternating round(s), "
        f"cpu ratios {overhead['round_ratios']})"
    )
    if report["five_xx"]:
        print(f"FAIL: {report['five_xx']} 5xx response(s)", file=sys.stderr)
        return 1
    if report["req_per_s"] < args.min_rps:
        print(
            f"FAIL: {report['req_per_s']} req/s below required "
            f"{args.min_rps} req/s",
            file=sys.stderr,
        )
        return 1
    if not report["coalesce_hits"]:
        print("FAIL: no request ever coalesced", file=sys.stderr)
        return 1
    if batch["warm_lru"] != batch["keys"]:
        print(
            f"FAIL: predict_many warm replay served only "
            f"{batch['warm_lru']}/{batch['keys']} key(s) from the LRU",
            file=sys.stderr,
        )
        return 1
    if report["trace_overhead_ratio"] < TRACE_OVERHEAD_MIN_RATIO:
        print(
            f"FAIL: flight recorder costs "
            f"{(1 - report['trace_overhead_ratio']):.1%} of warm req/s "
            f"(ratio {report['trace_overhead_ratio']} below "
            f"{TRACE_OVERHEAD_MIN_RATIO})",
            file=sys.stderr,
        )
        return 1
    if not agreement["agrees"]:
        print(
            f"FAIL: server p95 {agreement['server_p95_ms']}ms disagrees "
            f"with client p95 {agreement['client_p95_ms']}ms by "
            f"{agreement['relative_difference']:.1%} "
            f"(> {agreement['tolerance']:.0%})",
            file=sys.stderr,
        )
        return 1
    if scaling is not None:
        if scaling["speedup"] < scaling["required_speedup"]:
            print(
                f"FAIL: fleet speedup {scaling['speedup']}x at "
                f"{SCALING_WORKER_COUNTS[-1]} workers below required "
                f"{scaling['required_speedup']}x "
                f"({scaling['cpu_count']} CPU(s))",
                file=sys.stderr,
            )
            return 1
        fleet_agreement = scaling["worker_counts"][-1]["agreement"]
        if not fleet_agreement["agrees"]:
            print(
                f"FAIL: fleet-merged p95 "
                f"{fleet_agreement['server_p95_ms']}ms disagrees with "
                f"client p95 {fleet_agreement['client_p95_ms']}ms by "
                f"{fleet_agreement['relative_difference']:.1%} "
                f"(> {fleet_agreement['tolerance']:.0%})",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
