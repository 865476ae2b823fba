"""Shared server state: configuration, caches, worker pool, backpressure.

One :class:`ServiceState` lives for the life of the daemon.  It owns

* the per-resource :class:`~repro.service.coalesce.ComputeCache` stack
  (artifacts, predictor evaluations, planners, trade-off curves);
* a bounded :class:`~concurrent.futures.ThreadPoolExecutor` the heavy
  POST endpoints run on, guarded by a semaphore sized
  ``workers + queue_limit``.  When every slot is taken the request is
  rejected immediately with 429 instead of piling onto an unbounded
  queue — the daemon degrades by shedding load, not by falling over;
* the drain flag and in-flight request accounting graceful shutdown
  waits on.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..obs import OBS, FlightRecorder
from .coalesce import ComputeCache

#: Service wire-format version, reported by /healthz.
SERVICE_VERSION = 1


class ApiError(Exception):
    """An error the server turns into a structured JSON response."""

    def __init__(self, status: int, code: str, message: str, **details: Any) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.details = details

    def body(self) -> dict:
        error = {"status": self.status, "code": self.code, "message": self.message}
        if self.details:
            error["details"] = self.details
        return {"error": error}


@dataclass(frozen=True)
class ServiceConfig:
    """Every serve-time knob, in one value object.

    One config describes one *process*: ``threads`` is this process's
    heavy-endpoint pool.  Fleet mode (``workers > 1``) spawns
    ``workers`` processes, each carrying a copy of this config with its
    own ``shard_index`` and the shared ``control_dir`` filled in by the
    supervisor (see :mod:`repro.service.supervisor`).
    """

    host: str = "127.0.0.1"
    port: int = 8642
    #: threads executing heavy (POST) endpoint work in this process
    #: (named ``workers`` before fleet mode claimed that word)
    threads: int = 4
    #: additional requests allowed to wait for a pool thread; beyond
    #: ``threads + queue_limit`` concurrent heavy requests → 429
    queue_limit: int = 16
    #: capacity of each in-process LRU layer
    lru_size: int = 128
    #: seconds graceful shutdown waits for in-flight requests
    drain_seconds: float = 10.0
    #: log one line per request to stderr
    verbose: bool = False
    #: emit one structured JSON access-log line per request on stderr
    #: (request id, route, status, duration); stdout stays untouched
    log_json: bool = False
    #: worker *processes*; > 1 runs the supervised pre-fork fleet
    workers: int = 1
    #: this process's shard index in ``[0, workers)``; set per worker
    #: by the supervisor, ``None`` outside fleet mode
    shard_index: Optional[int] = None
    #: directory holding the per-worker control sockets; set by the
    #: supervisor, ``None`` outside fleet mode
    control_dir: Optional[str] = None
    #: write a JSON readiness document (port, pids, control dir) here
    #: once the listener is accepting; tests and the CI chaos job poll it
    ready_file: Optional[str] = None
    #: disable the always-on tracing layer (no per-request traces, no
    #: flight recorder, no exemplars); ``--trace-off`` sets it
    trace_off: bool = False
    #: probabilistic keep rate for unremarkable requests in the flight
    #: recorder (errors and slow-tail requests are always kept);
    #: 1.0 keeps everything (the QA harness runs at 1.0)
    trace_sample: float = 0.01
    #: slow-tail threshold (milliseconds): requests at least this slow
    #: always enter the flight recorder
    trace_slow_ms: float = 250.0
    #: finished request traces the per-worker ring buffer retains
    trace_capacity: int = 256

    @property
    def queue_capacity(self) -> int:
        """Heavy requests this process admits before shedding with 429."""
        return self.threads + self.queue_limit

    @property
    def tracing_enabled(self) -> bool:
        """Whether the always-on tracing layer is live for this process."""
        return not self.trace_off


class ServiceState:
    """Mutable daemon state shared by every request thread."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.started = time.time()
        self.draining = False
        self.artifacts = ComputeCache(config.lru_size, "artifacts")
        self.predictions = ComputeCache(config.lru_size, "predict")
        self.planners = ComputeCache(max(8, config.lru_size // 4), "planner")
        self.plans = ComputeCache(config.lru_size, "plan")
        self.models = ComputeCache(max(8, config.lru_size // 4), "models")
        self.flight = FlightRecorder(
            capacity=config.trace_capacity,
            slow_threshold=config.trace_slow_ms / 1e3,
            sample_rate=config.trace_sample,
            enabled=config.tracing_enabled,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=config.threads, thread_name_prefix="repro-svc"
        )
        self._slots = threading.BoundedSemaphore(config.queue_capacity)
        self._depth_lock = threading.Lock()
        self._queue_depth = 0
        self._http_lock = threading.Lock()
        self._http_inflight = 0
        self._idle = threading.Condition(self._http_lock)

    # -- heavy work ----------------------------------------------------------

    def run_heavy(self, fn: Callable[[], Any]) -> Any:
        """Run *fn* on the bounded worker pool; 429 when saturated.

        The calling request thread blocks on the result (the HTTP
        response needs it) — the pool exists to bound *concurrent
        compute* and to give overload a cheap, immediate answer.

        The caller's active trace crosses the pool boundary: spans the
        compute opens on the pool thread collect into the same trace,
        parented under the caller's innermost span.
        """
        if not self._slots.acquire(blocking=False):
            OBS.add("service.rejected.overload")
            raise ApiError(
                429,
                "overloaded",
                "server is at capacity; retry shortly",
                queue_capacity=self.config.queue_capacity,
            )
        trace = OBS.current_trace()
        if trace is not None:
            parent_hint = OBS.current_span_id()
            compute = fn

            def traced() -> Any:
                with OBS.adopt_trace(trace, parent_hint=parent_hint):
                    with OBS.span("service.pool"):
                        return compute()

            fn = traced
        self._bump_depth(+1)
        try:
            future = self._pool.submit(fn)
        except BaseException:
            self._bump_depth(-1)
            self._slots.release()
            raise
        try:
            return future.result()
        finally:
            self._bump_depth(-1)
            self._slots.release()

    def _bump_depth(self, delta: int) -> None:
        with self._depth_lock:
            self._queue_depth += delta
            depth = self._queue_depth
        OBS.set_gauge("service.queue.depth", depth)

    @property
    def queue_depth(self) -> int:
        with self._depth_lock:
            return self._queue_depth

    # -- request accounting (for graceful drain) -----------------------------

    def request_started(self) -> None:
        with self._http_lock:
            self._http_inflight += 1

    def request_finished(self) -> None:
        with self._http_lock:
            self._http_inflight -= 1
            if self._http_inflight <= 0:
                self._idle.notify_all()

    @property
    def inflight_requests(self) -> int:
        with self._http_lock:
            return self._http_inflight

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._http_lock:
            while self._http_inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # -- fleet topology -------------------------------------------------------

    @property
    def fleet_size(self) -> int:
        """Worker processes in the fleet (1 outside fleet mode)."""
        return max(1, self.config.workers)

    @property
    def is_fleet_worker(self) -> bool:
        """True when this process is one shard of a supervised fleet."""
        return (
            self.fleet_size > 1
            and self.config.shard_index is not None
            and self.config.control_dir is not None
        )

    def peer_shards(self) -> List[int]:
        """Every shard index except this process's own."""
        own = self.config.shard_index
        return [i for i in range(self.fleet_size) if i != own]

    # -- lifecycle -----------------------------------------------------------

    def begin_drain(self) -> None:
        self.draining = True

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def uptime(self) -> float:
        return time.time() - self.started
