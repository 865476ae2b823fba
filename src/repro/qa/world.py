"""The QA ``World``: every live system a journey touches, composed.

One :class:`LiveWorld` owns:

- a real ``python -m repro serve`` subprocess (daemon or pre-fork
  fleet) launched via :func:`~repro.service.supervisor.spawn_fleet`
  with ``--log-json`` and its stderr captured to a file,
- a fresh on-disk artifact cache directory (``REPRO_CACHE_DIR``),
- a recording :class:`~repro.service.client.ServiceClient` for journey
  traffic plus a separate *probe* client whose scrapes of ``/stats``,
  ``/metrics``, ``/fleet`` and ``/healthz`` are **not** recorded (so
  observation does not pollute the journey's own request accounting),
- the per-worker control sockets (snapshots with ``as_of`` epochs),
- the parsed JSON access-log stream.

Everything a journey did is kept as :class:`CallRecord` rows; every
invariant gets the whole world and cross-checks the systems against
them.  Conditions (``accepting``, ``stable_fleet``, ``pristine_cache``,
``fleet``) start present and are withdrawn by chaos actions; invariants
requiring a withdrawn condition are skipped, not failed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.promtext import histogram_bucket_counts, parse_exposition
from ..service.client import ServiceClient, unwrap_envelope
from ..service.control import ControlError, control_request, socket_path
from ..service.supervisor import FleetHandle, spawn_fleet
from .core import expect

#: Routes that run real pipeline work through the compute caches.
HEAVY_ROUTES = ("artifacts", "predict", "machine", "plan", "train")

#: How long ``settle()`` waits for the access log to catch up with the
#: recorded calls.  The log line is written *after* the counters bump
#: (same ``finally``), so a settled log means settled counters.
SETTLE_TIMEOUT = 5.0


@dataclass
class CallRecord:
    """One journey request as the client experienced it."""

    step: str
    method: str
    path: str
    body: Optional[dict]
    status: Optional[int]  # None: transport error (no response)
    latency_s: float
    request_id: str
    echoed_id: Optional[str]
    document: Any  # parsed response body (the v1 envelope)
    error: Optional[str] = None

    @property
    def route(self) -> str:
        return self.path.strip("/").replace("/", ".") or "root"

    @property
    def data(self) -> Any:
        """The payload: envelope-unwrapped."""
        return unwrap_envelope(self.document)

    @property
    def error_doc(self) -> dict:
        doc = self.document if isinstance(self.document, dict) else {}
        err = doc.get("error")
        return err if isinstance(err, dict) else {}


class LiveWorld:
    """A live daemon/fleet plus everything needed to cross-examine it."""

    def __init__(
        self,
        workers: int = 2,
        threads: int = 4,
        queue_limit: int = 16,
        lru_size: int = 128,
        keep_root: bool = False,
    ) -> None:
        self.workers = workers
        self.threads = threads
        self.queue_limit = queue_limit
        self.lru_size = lru_size
        self.keep_root = keep_root
        self.handle: Optional[FleetHandle] = None
        self.root: Optional[str] = None
        self.cache_dir: Optional[str] = None
        self.log_path: Optional[str] = None
        self.client: Optional[ServiceClient] = None
        self._probe: Optional[ServiceClient] = None
        self.calls: List[CallRecord] = []
        self.notes: Dict[str, Any] = {}
        self.conditions: set = set()
        self.draining = False
        self.current_step = "setup"
        self._lock = threading.Lock()
        self._rid_seq = 0
        self._baseline_counters: Dict[str, float] = {}
        self._baseline_metrics: Dict[str, list] = {}
        self._baseline_trace_files = 0
        self._baseline_disk_bytes = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "LiveWorld":
        self.root = tempfile.mkdtemp(prefix="repro-qa-")
        self.cache_dir = os.path.join(self.root, "cache")
        os.makedirs(self.cache_dir)
        self.log_path = os.path.join(self.root, "daemon.log")
        self.handle = spawn_fleet(
            workers=self.workers,
            threads=self.threads,
            extra_args=[
                "--log-json",
                "--queue-limit", str(self.queue_limit),
                "--lru-size", str(self.lru_size),
                # Keep every finished trace: the trace invariants must be
                # able to resolve any answered request's trace id.
                "--trace-sample", "1",
            ],
            extra_env={"REPRO_CACHE_DIR": self.cache_dir},
            log_path=self.log_path,
        )
        self.client = ServiceClient(self.handle.host, self.handle.port, timeout=120.0)
        self._probe = ServiceClient(self.handle.host, self.handle.port, timeout=30.0)
        health = self._probe.healthz()
        expect(health.get("status") == "ok", "daemon did not come up healthy",
               health=health)
        self.conditions = {"accepting", "stable_fleet", "pristine_cache"}
        if self.workers > 1:
            self.conditions.add("fleet")
        self._baseline_counters = dict(self.stats().get("counters", {}))
        self._baseline_metrics = self.metrics_parsed()
        self._baseline_trace_files = self.disk_trace_files()
        self._baseline_disk_bytes = self.disk_bytes()
        return self

    def stop(self) -> None:
        for client in (self.client, self._probe):
            if client is not None:
                client.close()
        if self.handle is not None:
            self.handle.stop()
            try:
                os.unlink(self.handle.ready_file)
            except OSError:
                pass
        if self.root and not self.keep_root:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "LiveWorld":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- journey traffic (recorded) ------------------------------------------

    def _next_rid(self) -> str:
        with self._lock:
            self._rid_seq += 1
            return f"qa-{os.getpid()}-{self._rid_seq:05d}"

    def call(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        client: Optional[ServiceClient] = None,
        step: Optional[str] = None,
    ) -> CallRecord:
        """One recorded request; transport errors are recorded, not raised."""
        rid = self._next_rid()
        active = client or self.client
        started = perf_counter()
        status: Optional[int] = None
        document: Any = None
        error: Optional[str] = None
        echoed: Optional[str] = None
        try:
            status, document = active.request_raw(method, path, body, request_id=rid)
            echoed = active.last_request_id
        except OSError as exc:
            error = f"{type(exc).__name__}: {exc}"
        record = CallRecord(
            step=step or self.current_step,
            method=method,
            path=path,
            body=body,
            status=status,
            latency_s=perf_counter() - started,
            request_id=rid,
            echoed_id=echoed,
            document=document,
            error=error,
        )
        with self._lock:
            self.calls.append(record)
        return record

    def parallel(self, specs: Sequence[dict], timeout: float = 120.0) -> List[CallRecord]:
        """Barrier-started concurrent calls, one fresh client per thread.

        Each spec: ``{"method", "path", "body"?}``.  Results come
        back in spec order (the shared record list fills in completion
        order, which is fine — invariants never depend on it).
        """
        results: List[Optional[CallRecord]] = [None] * len(specs)
        barrier = threading.Barrier(len(specs))
        step = self.current_step

        def work(index: int, spec: dict) -> None:
            with ServiceClient(self.handle.host, self.handle.port, timeout=timeout) as cl:
                barrier.wait()
                results[index] = self.call(
                    spec.get("method", "POST"),
                    spec["path"],
                    spec.get("body"),
                    client=cl,
                    step=step,
                )

        threads = [
            threading.Thread(target=work, args=(i, spec), daemon=True)
            for i, spec in enumerate(specs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [r for r in results if r is not None]

    def calls_for(
        self, route: Optional[str] = None, statuses: Optional[Iterable[int]] = None
    ) -> List[CallRecord]:
        wanted = None if statuses is None else set(statuses)
        return [
            record
            for record in self.calls
            if (route is None or record.route == route)
            and (wanted is None or record.status in wanted)
        ]

    def settle(self, timeout: float = SETTLE_TIMEOUT) -> bool:
        """Wait until the access log has a line for every answered call.

        The server writes the access-log line *after* bumping the
        request counters (same ``finally`` block), so once the log has
        caught up, every counter a recorded call implies has landed —
        the ordering guarantee all counter==traffic invariants lean on.
        Best-effort by design: a worker killed between response and log
        write leaves a permanent gap, so chaos runs may time out here
        (and the counter invariants requiring ``stable_fleet`` are
        skipped in exactly those runs).
        """
        want = {r.request_id for r in self.calls if r.status is not None}
        deadline = time.monotonic() + timeout
        while True:
            have = {entry.get("request_id") for entry in self.access_entries()}
            if want <= have:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    # -- probes (not recorded) -----------------------------------------------

    def probe_healthz(self) -> dict:
        return self._probe.healthz()

    def probe_raw(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, dict]:
        return self._probe.request_raw(method, path, body)

    def probe_metrics_status(self) -> int:
        status, _ = self._probe.request_text("GET", "/metrics")
        return status

    def stats(self) -> dict:
        return self._probe.stats()

    def counters(self) -> Dict[str, float]:
        return dict(self.stats().get("counters", {}))

    def counter_delta(self, counters: Dict[str, float], name: str) -> float:
        return counters.get(name, 0) - self._baseline_counters.get(name, 0)

    def fleet_doc(self) -> dict:
        return self._probe.request("GET", "/fleet")

    def metrics_parsed(self) -> Dict[str, list]:
        return parse_exposition(self._probe.metrics())

    def trace_doc(self, trace_id: str) -> Tuple[int, Any]:
        """``GET /trace/{id}`` via the probe client: ``(status, envelope)``."""
        return self._probe.request_raw("GET", f"/trace/{trace_id}")

    def route_bucket_delta(
        self, route: str, parsed: Optional[Dict[str, list]] = None
    ) -> List[Tuple[float, float]]:
        """Per-bucket latency counts for *route* since the baseline scrape."""
        from ..obs.promtext import delta_bucket_counts

        family = f"repro_service_latency_seconds_{route}"
        before = histogram_bucket_counts(self._baseline_metrics, family)
        after = histogram_bucket_counts(parsed or self.metrics_parsed(), family)
        return delta_bucket_counts(before, after)

    # -- access log ----------------------------------------------------------

    def _log_entries(self) -> List[dict]:
        if not self.log_path:
            return []
        try:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as stream:
                text = stream.read()
        except OSError:
            return []
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "request_id" in record:
                entries.append(record)
        return entries

    def access_entries(self) -> List[dict]:
        """Parsed *client-facing* access-log lines.

        Owner-side lines (``"owner": true`` — an owner worker running a
        peer's control-socket invoke) are excluded: a proxied request
        legitimately logs on both workers, but the client-facing
        population must hold exactly one line per request id.
        """
        return [
            entry for entry in self._log_entries() if entry.get("owner") is not True
        ]

    def invoke_entries(self) -> List[dict]:
        """Owner-side access-log lines (cross-shard control invokes)."""
        return [
            entry for entry in self._log_entries() if entry.get("owner") is True
        ]

    # -- disk cache ----------------------------------------------------------

    def _disk_files(self) -> List[str]:
        if not self.cache_dir:
            return []
        try:
            return sorted(os.listdir(self.cache_dir))
        except OSError:
            return []

    def disk_trace_files(self) -> int:
        return sum(1 for name in self._disk_files() if name.endswith(".trace"))

    def disk_bytes(self) -> int:
        total = 0
        for name in self._disk_files():
            try:
                total += os.path.getsize(os.path.join(self.cache_dir, name))
            except OSError:
                pass
        return total

    def disk_trace_delta(self) -> int:
        return self.disk_trace_files() - self._baseline_trace_files

    def disk_bytes_delta(self) -> int:
        return self.disk_bytes() - self._baseline_disk_bytes

    # -- fleet control plane -------------------------------------------------

    @property
    def control_dir(self) -> Optional[str]:
        return self.handle.control_dir if self.handle else None

    def worker_snapshots(self, timeout: float = 5.0) -> Dict[int, dict]:
        """``{shard: snapshot op reply}`` (reply carries ``as_of``).

        Raises :class:`~repro.service.control.ControlError` when a
        worker is unreachable — callers under chaos catch it or require
        ``stable_fleet``.
        """
        if not self.control_dir:
            return {}
        return {
            shard: control_request(
                socket_path(self.control_dir, shard), {"op": "snapshot"}, timeout
            )
            for shard in range(self.workers)
        }

    def kill_worker(self, shard: int) -> int:
        """SIGKILL worker *shard*; withdraws ``stable_fleet``. Returns pid."""
        ready = self.handle.refresh_ready()
        pid = int(ready["pids"][shard])
        os.kill(pid, signal.SIGKILL)
        self.conditions.discard("stable_fleet")
        self.notes["killed_pid"] = pid
        return pid

    def wait_for_respawn(self, old_pids: List[int], timeout: float = 20.0) -> bool:
        """Wait until the supervisor replaced the killed worker."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready = self.handle.refresh_ready()
            pids = [int(p) for p in ready.get("pids", [])]
            if (
                int(ready.get("restarts", 0)) >= 1
                and len(pids) == self.workers
                and set(pids) != set(old_pids)
                and all(_alive(pid) for pid in pids)
            ):
                return True
            time.sleep(0.1)
        return False

    def drain_all(self, timeout: float = 5.0) -> List[int]:
        """Flip the drain flag on every worker; withdraws ``accepting``."""
        drained = []
        if not self.control_dir:
            raise ControlError("drain_all needs a fleet (no control_dir)")
        for shard in range(self.workers):
            reply = control_request(
                socket_path(self.control_dir, shard), {"op": "drain"}, timeout
            )
            if reply.get("ok"):
                drained.append(shard)
        self.draining = True
        self.conditions.discard("accepting")
        return drained

    # -- cache chaos hooks ---------------------------------------------------

    def corrupt_disk_cache(self) -> int:
        """Truncate every artifact file to garbage; withdraws
        ``pristine_cache``.  Returns how many files were mangled."""
        mangled = 0
        for name in self._disk_files():
            path = os.path.join(self.cache_dir, name)
            try:
                with open(path, "wb") as stream:
                    stream.write(b"\x00garbage\x00")
                mangled += 1
            except OSError:
                pass
        self.conditions.discard("pristine_cache")
        return mangled

    def plant_garbage_entry(self, name: str, scale: int, seed_offset: int) -> Tuple[str, str]:
        """Write an unreadable cache entry for a key a journey will ask
        for next; withdraws ``pristine_cache``.  The daemon must fall
        back to recomputation (and answer 200) when it trips over it."""
        from ..workloads.artifacts import DEFAULT_HISTORY_BITS, _entry_paths

        trace_path, aux_path = _entry_paths(
            self.cache_dir, name, scale, seed_offset, DEFAULT_HISTORY_BITS
        )
        for path in (trace_path, aux_path):
            with open(path, "wb") as stream:
                stream.write(b"not an artifact")
        self.conditions.discard("pristine_cache")
        return trace_path, aux_path


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True
