"""The fleet control plane: one unix control socket per worker.

Every fleet worker runs a tiny :class:`ControlServer` next to its HTTP
listener — a ``ThreadingUnixStreamServer`` speaking one JSON object per
line, one request per connection.  The sockets live in the
supervisor-owned ``control_dir`` (``worker-<shard>.sock``), so any
worker (and the supervisor) can reach any specific peer even though
the shared HTTP listening socket load-balances connections across the
whole fleet.

Operations:

``ping``
    Liveness + per-worker vitals: pid, shard, uptime, in-flight
    requests, total requests served, latency p95.  ``GET /fleet`` and
    the load generator's per-worker report are built from these.
``snapshot``
    The worker's full observer snapshot (counters, gauges, histograms —
    :func:`~repro.obs.export.snapshot_to_dict` wire form) plus its live
    rates.  The fleet-merged ``/stats`` and ``/metrics`` fold these
    with :meth:`~repro.obs.core.Observer.merge_snapshot`: counters sum,
    gauges are last-write-wins, histogram buckets merge **exactly**, so
    fleet-wide p95/p99 are exact, not approximated.
``invoke``
    Run one endpoint on this worker (cross-shard request proxying)
    through the same :func:`~repro.service.handlers.dispatch` as HTTP,
    with ``proxy=False`` so the owner never hops again — compute caches,
    single-flight and 429 backpressure all apply as if the request had
    arrived over HTTP.  When the request carries a
    ``traceparent``, the handler runs under the caller's distributed
    trace: the owner's spans parent under the proxy's request span, ride
    back in the reply, and the owner keeps its own flight-recorder entry
    and (in ``--log-json`` mode) writes an ``"owner": true`` access-log
    line — a proxied request is visible on *both* sides of the hop.
``trace`` / ``traces``
    Read this worker's flight recorder: one ring entry by trace id /
    newest-first summaries.  ``GET /trace/{id}`` and
    ``GET /debug/traces`` stitch the fleet view from these.
``drain``
    Flip the drain flag (supervisor-propagated graceful shutdown).
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from typing import Dict, List, Tuple

from ..obs import (
    OBS,
    ObsSnapshot,
    merge_snapshots,
    parse_traceparent,
    snapshot_from_dict,
    snapshot_to_dict,
)
from .state import ApiError, ServiceState

#: A control request or response must fit one line of this many bytes
#: (plan payloads with full trade-off curves are ~100KB; 8MB is sky-high).
MAX_LINE_BYTES = 8 << 20

#: Default per-call socket timeout; control peers are local processes.
CONTROL_TIMEOUT = 10.0


def socket_path(control_dir: str, shard: int) -> str:
    """Where shard *shard*'s control socket lives under *control_dir*."""
    return os.path.join(control_dir, f"worker-{shard}.sock")


class ControlError(OSError):
    """A control peer was unreachable or answered garbage."""


# -- server ------------------------------------------------------------------


def _op_ping(state: ServiceState, request: dict) -> dict:
    hist = OBS.histogram("service.latency_seconds")
    return {
        "ok": True,
        "pid": os.getpid(),
        "shard": state.config.shard_index,
        "as_of": OBS.epoch(),
        "uptime_seconds": round(state.uptime(), 3),
        "inflight": state.inflight_requests,
        "draining": state.draining,
        "requests": OBS.counter("service.requests"),
        "latency_p95_ms": round(hist.quantile(0.95) * 1e3, 3) if hist else 0.0,
    }


def _op_snapshot(state: ServiceState, request: dict) -> dict:
    # ``as_of`` is read *before* the snapshot: if the two epochs a caller
    # brackets a scrape with are equal, the snapshot in between is not torn.
    as_of = OBS.epoch()
    return {
        "ok": True,
        "pid": os.getpid(),
        "shard": state.config.shard_index,
        "as_of": as_of,
        "snapshot": snapshot_to_dict(OBS.snapshot()),
        "rates": OBS.rates(),
    }


def _op_invoke(state: ServiceState, request: dict) -> dict:
    # Imported here: handlers imports this module for fleet aggregation.
    from .handlers import dispatch, route_name
    from .logs import write_access_log

    method = str(request.get("method"))
    path = str(request.get("path"))
    route = route_name(path)
    trace = None
    if state.flight.enabled:
        context = parse_traceparent(str(request.get("traceparent") or ""))
        if context is not None:
            # Join the proxying worker's trace: spans opened here parent
            # under its request span (the remote parent id).
            trace = OBS.start_trace(context[0], remote_parent_id=context[1])
            trace.notes["owner"] = True
            if request.get("invoked_by") is not None:
                trace.notes["invoked_by"] = request.get("invoked_by")
            if request.get("request_id"):
                trace.notes["request_id"] = str(request["request_id"])
    started = time.perf_counter()
    status = 200
    try:
        OBS.add("service.shard.invoked")
        with OBS.span(
            "service.invoke", route=route, shard=state.config.shard_index
        ):
            # proxy=False: the accepting worker already routed (and
            # counted) this request, so the owner computes here.
            _, payload = dispatch(
                state, method, path, request.get("body"), proxy=False
            )
        response = {"ok": True, "payload": payload}
    except ApiError as error:
        status = error.status
        response = {"ok": False, "error": error.body()["error"]}
    except BaseException:
        status = 500
        raise
    finally:
        if trace is not None:
            elapsed = time.perf_counter() - started
            OBS.end_trace()
            state.flight.record(
                trace,
                status,
                route,
                elapsed,
                request_id=trace.notes.get("request_id"),
                shard=state.config.shard_index,
            )
            if state.config.log_json:
                write_access_log(
                    str(trace.notes.get("request_id") or "-"),
                    method,
                    path,
                    route,
                    status,
                    elapsed,
                    trace_id=trace.trace_id,
                    shard=state.config.shard_index,
                    owner=True,
                    invoked_by=trace.notes.get("invoked_by"),
                )
    if trace is not None:
        # Hand the owner-side spans back so the proxy's flight-recorder
        # entry holds the complete tree even if this ring evicts first.
        response["spans"] = trace.span_dicts()
    return response


def _op_trace(state: ServiceState, request: dict) -> dict:
    """One flight-recorder entry by trace id (``None`` when not retained)."""
    return {"ok": True, "entry": state.flight.get(str(request.get("trace_id") or ""))}


def _op_traces(state: ServiceState, request: dict) -> dict:
    """Newest-first summaries of this worker's flight-recorder ring."""
    return {
        "ok": True,
        "retained": len(state.flight),
        "traces": state.flight.summaries(),
    }


def _op_drain(state: ServiceState, request: dict) -> dict:
    state.begin_drain()
    return {"ok": True, "draining": True}


_OPS = {
    "ping": _op_ping,
    "snapshot": _op_snapshot,
    "invoke": _op_invoke,
    "trace": _op_trace,
    "traces": _op_traces,
    "drain": _op_drain,
}


class _ControlHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        line = self.rfile.readline(MAX_LINE_BYTES)
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("control request must be a JSON object")
        except (ValueError, UnicodeDecodeError) as error:
            self._reply({"ok": False, "error": {
                "status": 400, "code": "bad_control_request",
                "message": f"unparseable control request: {error}",
            }})
            return
        op = _OPS.get(request.get("op"))
        if op is None:
            self._reply({"ok": False, "error": {
                "status": 400, "code": "unknown_op",
                "message": f"unknown control op {request.get('op')!r}",
                "details": {"available": sorted(_OPS)},
            }})
            return
        try:
            response = op(self.server.state, request)  # type: ignore[attr-defined]
        except Exception as error:  # noqa: BLE001 — must answer something
            OBS.add("service.control.errors")
            response = {"ok": False, "error": {
                "status": 500, "code": "internal",
                "message": f"{type(error).__name__}: {error}",
            }}
        self._reply(response)

    def _reply(self, response: dict) -> None:
        try:
            self.wfile.write(json.dumps(response, default=str).encode() + b"\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # caller vanished; nothing to tell it


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    state: ServiceState


class ControlServer:
    """This worker's control listener; start once, close on shutdown."""

    def __init__(self, state: ServiceState, path: str) -> None:
        self.path = path
        try:
            os.unlink(path)  # a crashed predecessor's stale socket
        except FileNotFoundError:
            pass
        self._server = _UnixServer(path, _ControlHandler)
        self._server.state = state
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-control",
            daemon=True,
        )

    def start(self) -> "ControlServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


# -- client ------------------------------------------------------------------


def control_request(
    path: str, payload: dict, timeout: float = CONTROL_TIMEOUT
) -> dict:
    """One request/response round-trip against a peer's control socket."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(path)
            sock.sendall(json.dumps(payload, default=str).encode() + b"\n")
            with sock.makefile("rb") as stream:
                line = stream.readline(MAX_LINE_BYTES)
    except OSError as error:
        raise ControlError(f"control peer {path}: {error}") from error
    if not line:
        raise ControlError(f"control peer {path}: empty response")
    try:
        response = json.loads(line)
    except ValueError as error:
        raise ControlError(f"control peer {path}: bad response: {error}") from error
    if not isinstance(response, dict):
        raise ControlError(f"control peer {path}: non-object response")
    return response


# -- fleet aggregation -------------------------------------------------------


def ask_peers(
    state: ServiceState, payload: dict, timeout: float = CONTROL_TIMEOUT
) -> Tuple[Dict[int, dict], List[int]]:
    """``({shard: reply}, unreachable shards)`` for one control request
    sent to every peer worker; ``({}, [])`` outside fleet mode."""
    replies: Dict[int, dict] = {}
    unreachable: List[int] = []
    if state.is_fleet_worker:
        for shard in state.peer_shards():
            try:
                replies[shard] = control_request(
                    socket_path(state.config.control_dir, shard), payload, timeout
                )
            except ControlError:
                unreachable.append(shard)
    return replies, unreachable


def fleet_statuses(state: ServiceState, timeout: float = 2.0) -> Tuple[List[dict], List[int]]:
    """``(entries, unreachable shards)`` — one ``ping`` per worker.

    This worker answers for itself in-process; peers over their control
    sockets.  A dead/restarting peer lands in *unreachable* instead of
    failing the whole listing — ``GET /fleet`` must stay useful mid-chaos.
    """
    replies, unreachable = ask_peers(state, {"op": "ping"}, timeout)
    if unreachable:
        OBS.add("service.fleet.peer_unreachable", len(unreachable))
    entries = [_op_ping(state, {}), *replies.values()]
    entries.sort(key=lambda entry: entry.get("shard") or 0)
    return entries, unreachable


def fleet_snapshot(
    state: ServiceState, timeout: float = 5.0
) -> Tuple[ObsSnapshot, Dict[str, float], List[int]]:
    """``(merged snapshot, summed rates, unreachable shards)`` fleet-wide.

    Counters sum, gauges are last-write-wins, histogram buckets merge
    exactly (see :func:`repro.obs.core.merge_snapshots`); rates sum
    name-wise — fleet req/s is the sum of per-worker req/s.  Outside
    fleet mode this degrades to the local snapshot.
    """
    snapshots = [OBS.snapshot()]
    rates: Dict[str, float] = dict(OBS.rates())
    replies, unreachable = ask_peers(state, {"op": "snapshot"}, timeout)
    for shard, reply in replies.items():
        try:
            snapshots.append(snapshot_from_dict(reply["snapshot"]))
        except (KeyError, TypeError, ValueError):
            unreachable.append(shard)
            continue
        for name, value in dict(reply.get("rates", {})).items():
            rates[name] = rates.get(name, 0.0) + float(value)
    if unreachable:
        OBS.add("service.fleet.peer_unreachable", len(unreachable))
    return merge_snapshots(snapshots), rates, sorted(unreachable)
