"""The two service workloads: a private fleet under a closed loop.

Load is sized for a 2-core machine: a fleet of 2 workers x 2 threads and
2 client threads in this process, all sharing those cores.  Each client
sends its next request only after the previous answer arrived.
"""

from __future__ import annotations

import ctypes
import os
import random
import shutil
import signal
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro import replication, workloads
from repro.obs import quantile_from_counts
from repro.obs.promtext import delta_bucket_counts, histogram_bucket_counts, parse_exposition
from repro.service.client import ServiceClient
from repro.service.loadgen import LATENCY_FAMILY
from repro.service.shard import owner_shard, shard_key
from repro.service.supervisor import spawn_fleet

from measure import CALIB_REF_S, PROBE_ITERATIONS, Round, Run, tree_cpu_s, tree_peak_rss_mb

CLIENTS = 2
WORKERS = 2
THREADS = 2
#: traces fetched from the flight recorders for per-span self times
TRACE_SAMPLE = 200
#: connections opened, at most, to land a client on a given worker
PIN_ATTEMPTS = 100

#: server span name -> per-layer metric suffix (self ms per request)
SERVER_SPANS = {
    "service.request": "request",
    "service.invoke": "invoke",
    "service.pool": "pool",
    "workload.run": "workload_run",
    "profiling.build": "profiling_build",
    "replication.plan": "replication_plan",
    "sm.search.intra": "sm_search",
    "sm.search.loop_exit": "sm_search",
    "sm.search.correlated": "sm_search",
    "replication.tradeoff": "replication_tradeoff",
}

#: response fields that legitimately differ between identical requests
VOLATILE = ("source", "shard")

#: prctl option from <linux/prctl.h>
PR_SET_CHILD_SUBREAPER = 36

Request = Tuple[str, dict]


def become_subreaper() -> None:
    """Make orphaned descendants (fleet workers whose supervisor was
    killed) children of this process, so :meth:`FleetWorkload.stop` can
    reap them.  Linux only; elsewhere the workers go to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def payload(document: dict) -> dict:
    """The envelope's data without the fields that vary per answer."""
    data = dict(document.get("data") or {})
    for key in VOLATILE:
        data.pop(key, None)
    return data


@dataclass
class ClientLog:
    """What one client thread saw in one window."""

    #: (operation key, seconds) of every request
    latencies: List[Tuple[Hashable, float]] = field(default_factory=list)
    trace_ids: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    answered: List[Tuple[int, dict]] = field(default_factory=list)


class FleetWorkload:
    """Set-up spawns a fleet; measurement drives it from client threads."""

    name = ""
    expected_spans = ("service.client",)
    #: SERVER_SPANS suffixes the sampled server traces must contain
    expected_server_spans: Tuple[str, ...] = ("request", "invoke")
    threads = CLIENTS
    #: seconds per calibrated slice of the load
    slice_s = 0.1

    def __init__(self, run: Run) -> None:
        self.run = run
        self.names = run.rng.sample(workloads.BENCHMARK_NAMES, len(workloads.BENCHMARK_NAMES))
        self.fleet = None
        self.clients: List[ServiceClient] = []
        self.trace_ids: List[str] = []
        #: raw client-side latencies of every request, in order
        self.client_latencies: List[float] = []
        self._scrape: dict = {}

    # -- fleet lifetime ---------------------------------------------------------

    def spawn(self) -> None:
        become_subreaper()
        cache = self.run.fresh_dir()
        # The fleet creates its control sockets in a directory relative to
        # its working directory (TMPDIR "." stays relative): a unix socket
        # path holds at most 107 bytes, and the checkout's may be longer.
        home = os.getcwd()
        os.chdir(self.run.workdir)
        try:
            self.fleet = spawn_fleet(
                workers=WORKERS,
                threads=THREADS,
                # every request's spans stay resolvable for the per-layer table
                extra_args=["--trace-sample", "1", "--trace-capacity", "1024"] if self.run.traced else [],
                extra_env={"REPRO_CACHE_DIR": cache, "TMPDIR": "."},
                log_path=os.path.join(cache, "fleet.log"),
            )
        finally:
            os.chdir(home)
        with self.client() as client:
            client.healthz()

    def client(self, timeout: float = 60.0) -> ServiceClient:
        return ServiceClient(self.fleet.host, self.fleet.port, timeout=timeout)

    def pinned_client(self, shard: int) -> ServiceClient:
        """A keep-alive client whose connection worker *shard* accepted.

        The kernel picks which worker accepts a connection, and req/s
        depends on the layout: both clients on worker 0, on worker 1,
        or one on each read 10-30% apart.  Left to chance, the runs'
        medians fall into groups; one client per worker is the layout a
        balancing front end would give.
        """
        for _ in range(PIN_ATTEMPTS):
            client = self.client()
            if client.request("GET", "/fleet")["answered_by"] == shard:
                return client
            client.close()
        raise RuntimeError(f"no connection reached worker {shard} in {PIN_ATTEMPTS} attempts")

    def stop(self) -> None:
        """SIGKILL the workers, then the supervisor, and reap them all.

        Every request has been answered by then, so nothing is lost, and
        a graceful stop can hang: a worker that served cross-shard
        traffic ignores SIGTERM, and the supervisor's SIGTERM handler can
        deadlock (it sets a ``threading.Event``, whose lock the
        interrupted main thread may hold).  This process is the
        workers' subreaper, so it reaps them once the supervisor is gone.
        """
        for client in self.clients:
            client.close()
        self.clients = []
        if self.fleet is None:
            return
        try:
            pids = [int(pid) for pid in self.fleet.refresh_ready()["pids"]]
        except (OSError, ValueError):
            pids = self.fleet.pids
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.fleet.process.kill()
        self.fleet.process.wait()
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # already reaped, or not reparented to this process
        # What the killed supervisor would have removed on a clean exit.
        if self.fleet.control_dir:
            shutil.rmtree(os.path.join(self.run.workdir, self.fleet.control_dir), ignore_errors=True)
        try:
            os.unlink(self.fleet.ready_file)
        except OSError:
            pass
        self.fleet = None

    def setup(self) -> None:
        for _ in range(self.run.setups):
            self.stop()
            with self.run.setup():
                self.spawn()
                self.prepare()

    def prepare(self) -> None:
        """Workload-specific part of set-up, after the fleet is healthy."""

    def close(self) -> None:
        if self.fleet is not None:
            self.run.rss_mb = tree_peak_rss_mb(self.fleet.process.pid)
        self.stop()

    # -- load -------------------------------------------------------------------

    def measure(self, seconds: float, min_rounds: int, traced: bool = False) -> None:
        """Slices of about :attr:`slice_s` seconds, each a round.  A sample
        on every CPU before and after a slice rescales its latencies and
        busy time."""
        if not self.clients:
            self.clients = [self.pinned_client(index % WORKERS) for index in range(CLIENTS)]
        slices = max(min_rounds, round(seconds / self.slice_s))
        before = self.run.calibrate(PROBE_ITERATIONS)
        for _ in range(slices):
            self.run.timed(True)
            logs = self.slice(seconds / slices)
            self.run.timed(False)
            after = self.run.calibrate(PROBE_ITERATIONS)
            scale = CALIB_REF_S * 2 / (before + after)
            round_ = Round(calibrations=[before, after])
            for log in logs:
                round_.ops += len(log.latencies)
                round_.latencies.extend((key, raw, raw * scale) for key, raw in log.latencies)
            round_.seconds = sum(raw for _, raw, _ in round_.latencies) / CLIENTS
            round_.ref_seconds = round_.seconds * scale
            self.run.rounds.append(round_)
            before = after

    def slice(self, seconds: float) -> List[ClientLog]:
        """Both clients send requests until *seconds* have passed; the
        slice ends when both have their last answer.

        A slice's time is the clients' mean busy time.  In a closed loop
        throughput is clients ÷ mean latency; busy time rather than wall
        time leaves out the tail in which one client already has its last
        answer and the other is still waiting for its own.
        """
        logs = [ClientLog() for _ in range(CLIENTS)]
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self.client_loop, args=(index, deadline, logs[index]))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for log in logs:
            self.client_latencies.extend(seconds for _, seconds in log.latencies)
            self.run.attempted += len(log.latencies)
            self.run.failed += len(log.failures)
            self.run.failures.extend(log.failures[: max(0, 20 - len(self.run.failures))])
            self.trace_ids.extend(log.trace_ids)
            self.answered(log.answered)
        return logs

    def client_loop(self, index: int, deadline: float, log: ClientLog) -> None:
        client = self.clients[index]
        while time.perf_counter() < deadline:
            key, (path, body) = self.next_request(index)
            started = time.perf_counter()
            try:
                status, document = client.request_raw("POST", path, body)
            except OSError as error:
                client.close()
                status, document = 0, {"error": str(error)}
            log.latencies.append((self.operation_key(key, body), time.perf_counter() - started))
            if client.last_trace_id:
                log.trace_ids.append(client.last_trace_id)
            problem = self.problem(key, status, document)
            if problem:
                log.failures.append(f"{path} {body}: {problem}")
            elif self.wants(key):
                log.answered.append((key, document["data"]))

    def next_request(self, client: int) -> Tuple[int, Request]:
        raise NotImplementedError

    def operation_key(self, key: int, body: dict) -> Hashable:
        """Which operation request *key* repeats, for latency statistics.
        By default none: each request counts on its own, because its tail
        is queueing, which a median per key would hide."""
        return object()

    def problem(self, key: int, status: int, document: dict) -> Optional[str]:
        raise NotImplementedError

    def wants(self, key: int) -> bool:
        """Whether the post-run checks need the answer to request *key*."""
        return False

    def answered(self, answers: List[Tuple[int, dict]]) -> None:
        """Keep the answers :meth:`wants` asked for."""

    def verify(self) -> None:
        pass

    # -- traced phase -----------------------------------------------------------

    def scrape(self) -> dict:
        with self.client(timeout=10.0) as client:
            counters = client.stats()["counters"]
            buckets = histogram_bucket_counts(parse_exposition(client.metrics()), LATENCY_FAMILY)
        return {
            "counters": counters,
            "buckets": buckets,
            "cpu_s": tree_cpu_s(self.fleet.process.pid),
            "requests": self.run.attempted,
            "trace_ids": len(self.trace_ids),
            "latencies": len(self.client_latencies),
        }

    def begin_traced(self) -> None:
        self._scrape = self.scrape()

    def traced_metrics(self, summary) -> Dict[str, float]:
        before, after = self._scrape, self.scrape()
        requests = after["requests"] - before["requests"]

        def delta(name: str) -> float:
            return after["counters"].get(name, 0) - before["counters"].get(name, 0)

        def delta_prefixed(prefix: str, suffix: str) -> float:
            return sum(
                value - before["counters"].get(name, 0)
                for name, value in after["counters"].items()
                if name.startswith(prefix) and name.endswith(suffix)
            )

        server = delta_bucket_counts(before["buckets"], after["buckets"])
        server_p50_ms = quantile_from_counts(server, 0.5) * 1e3
        client_ms = self.client_latencies[before["latencies"]:]
        lookups = sum(
            delta_prefixed("service.cache.", suffix) for suffix in (".hits", ".misses", ".coalesced")
        )
        metrics = {
            "service.server_p50_ms": server_p50_ms,
            "service.client_overhead_ms": statistics.median(client_ms) * 1e3 - server_p50_ms,
            "service.cpu_ms_per_req": (after["cpu_s"] - before["cpu_s"]) * 1e3 / requests,
            "service.proxied_share": delta("service.shard.proxied") / requests,
            "service.lru_hit_share": delta_prefixed("service.cache.", ".hits") / lookups if lookups else 0.0,
            "service.coalesce_hits": delta("service.coalesce.hits"),
            "service.rejected": delta("service.rejected.overload") + delta("service.rejected.draining"),
        }
        sampled = self.trace_ids[before["trace_ids"]:][-TRACE_SAMPLE:]
        self_ms, spans = self.server_self_ms(sampled)
        metrics["service.traces_sampled"] = self_ms.pop("", 0)
        metrics.update({f"service.self_ms.{name}": value for name, value in self_ms.items()})
        self.run.details["server_spans"] = spans
        # A server span renamed in src/ would otherwise read as 0 ms.
        seen = {SERVER_SPANS[span["name"]] for span in spans if span["name"] in SERVER_SPANS}
        for suffix in self.expected_server_spans:
            self.run.check(suffix in seen, f"trace coverage: server span {suffix} never seen")
        return metrics

    def server_self_ms(self, trace_ids: List[str]) -> Tuple[Dict[str, float], List[dict]]:
        """Mean self milliseconds per request of each server span, from
        the fleet's stitched ``GET /trace/{id}`` documents."""
        totals: Dict[str, float] = defaultdict(float)
        kept: List[dict] = []
        resolved = 0
        with self.client(timeout=10.0) as client:
            for trace_id in trace_ids:
                status, document = client.request_raw("GET", f"/trace/{trace_id}")
                if status != 200:
                    continue
                resolved += 1
                spans = document["data"]["spans"]
                kept.extend(spans)
                covered: Dict[str, float] = defaultdict(float)
                for span in spans:
                    if span.get("parent_id"):
                        covered[span["parent_id"]] += span["duration"]
                for span in spans:
                    suffix = SERVER_SPANS.get(span["name"])
                    if suffix:
                        totals[suffix] += span["duration"] - covered[span["span_id"]]
        per_request = {
            suffix: 1e3 * totals.get(suffix, 0.0) / resolved if resolved else 0.0
            for suffix in sorted(set(SERVER_SPANS.values()))
        }
        per_request[""] = resolved
        return per_request, kept


class ServiceWarm(FleetWorkload):
    name = "service-warm"
    OFFSETS = (0, 1)

    def prepare(self) -> None:
        """Compute every (benchmark, offset, route) answer once; keep the
        ones that answered 200 as the expected payloads."""
        self.pairs: List[Tuple[Request, dict]] = []
        with self.client() as client:
            for name in self.names:
                for offset in self.OFFSETS:
                    for path, extra in (
                        ("/predict", {"predictor": "profile"}),
                        ("/machine", {"max_states": 6}),
                        ("/plan", {"max_states": 6}),
                    ):
                        body = dict(extra, name=name, scale=1, seed_offset=offset)
                        status, document = client.request_raw("POST", path, body)
                        if status == 200:
                            self.pairs.append(((path, body), payload(document)))
                        elif not (path == "/machine" and status == 404):
                            raise RuntimeError(f"preload {path} {body} answered {status}")
        self.generators = [random.Random(self.run.seed * 1000 + index) for index in range(CLIENTS)]
        plans = {
            body["name"]: expected
            for (path, body), expected in self.pairs
            if path == "/plan" and body["seed_offset"] == 0
        }
        self.run.quality = plan_quality([plans[name] for name in workloads.BENCHMARK_NAMES])

    def next_request(self, client: int) -> Tuple[int, Request]:
        key = self.generators[client].randrange(len(self.pairs))
        return key, self.pairs[key][0]

    def problem(self, key: int, status: int, document: dict) -> Optional[str]:
        if status != 200:
            return f"status {status}"
        if payload(document) != self.pairs[key][1]:
            return "answer differs from its set-up payload"
        return None


class ServiceCold(FleetWorkload):
    """Every request is a ``POST /plan`` on a key new to the fleet, owned
    by the worker that did not accept it: each client's connection sits on
    one worker and its keys are owned by the other.  Every request thus
    takes the proxy hop, and the two clients' computations run on
    different workers.  Left to chance, two computations sometimes shared
    a worker's interpreter lock, and p50 moved 10% between runs of one
    seed."""

    name = "service-cold"
    expected_server_spans = tuple(sorted(set(SERVER_SPANS.values())))
    slice_s = 0.25
    #: every Nth request is re-planned in process after the run
    ORACLE_EVERY = 20
    #: fresh keys use seed offsets from here up
    FIRST_OFFSET = 1000

    def prepare(self) -> None:
        self.generators = [random.Random(self.run.seed * 1000 + index) for index in range(CLIENTS)]
        #: every request's body, by key
        self.bodies: Dict[int, dict] = {}
        self.sent = [0] * CLIENTS
        self.next_offset = [dict.fromkeys(self.names, self.FIRST_OFFSET) for _ in range(CLIENTS)]
        self.sampled: Dict[int, dict] = {}
        self.canonical: Dict[str, dict] = {}
        # The paper's inputs (offset 0) go first, so the quality metrics
        # are the same for every seed, each to the client it proxies for.
        self.queues: List[List[dict]] = [[] for _ in range(CLIENTS)]
        for name in self.names:
            owner = owner_shard(shard_key(name, 1, 0), WORKERS)
            self.queues[self.client_for(owner)].append(self.body(name, 0))

    @staticmethod
    def client_for(owner: int) -> int:
        """The client whose connection is not on worker *owner*."""
        return (owner + 1) % WORKERS

    @staticmethod
    def body(name: str, offset: int) -> dict:
        return {"name": name, "scale": 1, "max_states": 6, "seed_offset": offset}

    def fresh_body(self, client: int, name: str) -> dict:
        """The next offset of *name*, from FIRST_OFFSET up, that the other
        worker owns.  Every seed requests the same keys in another order."""
        offset = self.next_offset[client][name]
        while self.client_for(owner_shard(shard_key(name, 1, offset), WORKERS)) != client:
            offset += 1
        self.next_offset[client][name] = offset + 1
        return self.body(name, offset)

    def next_request(self, client: int) -> Tuple[int, Request]:
        queue = self.queues[client]
        if not queue:
            names = self.generators[client].sample(self.names, len(self.names))
            queue.extend(self.fresh_body(client, name) for name in names)
        key = self.sent[client] * CLIENTS + client
        self.sent[client] += 1
        self.bodies[key] = queue.pop(0)
        return key, ("/plan", self.bodies[key])

    def problem(self, key: int, status: int, document: dict) -> Optional[str]:
        if status != 200:
            return f"status {status}"
        if "final" not in (document.get("data") or {}):
            return "no final curve point"
        return None

    def wants(self, key: int) -> bool:
        return self.bodies[key]["seed_offset"] == 0 or key % self.ORACLE_EVERY == 0

    def answered(self, answers: List[Tuple[int, dict]]) -> None:
        for key, data in answers:
            if self.bodies[key]["seed_offset"] == 0:
                self.canonical[self.bodies[key]["name"]] = data
            if key % self.ORACLE_EVERY == 0:
                self.sampled[key] = data["final"]

    def verify(self) -> None:
        """Re-plan every sampled key in this process, with persistence
        off, and compare the served final curve point."""
        os.environ["REPRO_CACHE_DIR"] = ""
        for key, served in sorted(self.sampled.items()):
            body = self.bodies[key]
            try:
                planner = replication.ReplicationPlanner(
                    workloads.get_program(body["name"]),
                    workloads.get_profile(body["name"], 1, body["seed_offset"]),
                    body["max_states"],
                )
                final = replication.tradeoff_curve(planner)[-1]
            except Exception as error:  # an oracle failure is a failed check
                self.run.check(False, f"oracle {body}: {type(error).__name__}: {error}")
                continue
            expected = (final.size, final.mispredictions, round(final.size_factor, 6))
            got = (served["size"], served["mispredictions"], served["size_factor"])
            self.run.check(expected == got, f"/plan {body}: served {got}, in-process {expected}")
        workloads.clear_memory_cache()
        self.run.quality = plan_quality(
            [self.canonical[name] for name in workloads.BENCHMARK_NAMES if name in self.canonical]
        )


def plan_quality(plans: List[dict]) -> Dict[str, float]:
    """Promised misprediction rate and modelled growth of /plan answers."""
    events = sum(plan["total_executions"] for plan in plans)
    return {
        "mispredict_pct": 100.0 * sum(plan["final"]["mispredictions"] for plan in plans) / events,
        "size_factor": statistics.geometric_mean([plan["final"]["size_factor"] for plan in plans]),
    }


WORKLOADS = {cls.name: cls for cls in (ServiceWarm, ServiceCold)}
