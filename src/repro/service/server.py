"""The HTTP daemon: stdlib ``ThreadingHTTPServer`` over the handlers.

Request lifecycle::

    accept → (draining? → 503) → route → parse body → handler
           → worker pool for heavy endpoints (429 when saturated)
           → JSON response (keep-alive, explicit Content-Length)

Every request is instrumented through the process observer:
``service.requests[.<route>]`` counters, ``service.latency_seconds``
(and per-route ``service.latency_seconds.<route>``) **histograms**,
a ``service.requests`` sliding-window rate (the live req/s gauge on
``/metrics``), ``service.responses.<class>xx`` totals, a
``service.queue.depth`` gauge, ``service.rejected.*`` totals, and a
``service.request`` span per request while span recording is enabled.

Request correlation: every request carries an ``X-Request-Id`` —
honoured when the client sends one (sanitised), generated otherwise —
echoed on the response, stamped into the request span's attributes,
and written to the structured JSON access log (one line per request on
stderr when ``log_json`` is set), so one slow request can be chased
from the load generator through the access log into the Chrome trace.

Graceful shutdown (:func:`shutdown_gracefully`, wired to
SIGINT/SIGTERM by :func:`serve`) stops the accept loop, flips the
drain flag so late requests get a structured 503, waits for in-flight
requests to finish (bounded by ``drain_seconds``), then closes the
worker pool and the listening socket.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Optional, Tuple

from urllib.parse import parse_qs

from ..obs import OBS, PROMETHEUS_CONTENT_TYPE, parse_traceparent
from ..obs.profiler import (
    DEFAULT_SECONDS as PROFILE_DEFAULT_SECONDS,
    MAX_SECONDS as PROFILE_MAX_SECONDS,
    ProfilerBusy,
    profile_collapsed,
)
from .control import ControlServer, socket_path
from .handlers import (
    KNOWN_PATHS,
    ROUTES,
    envelope,
    error_envelope,
    handle_trace,
    render_metrics,
    route_name,
)
from .logs import write_access_log
from .state import ApiError, ServiceConfig, ServiceState

#: Test hook: seconds to stall before binding the listener, so tests can
#: deliver SIGTERM *during startup* deterministically.  The stall is
#: interruptible — a stop signal during it exits immediately.
BIND_DELAY_ENV = "REPRO_SERVE_TEST_BIND_DELAY"

#: Request bodies above this are rejected with 413.
MAX_BODY_BYTES = 1 << 20

#: Longest client-supplied X-Request-Id honoured verbatim.
MAX_REQUEST_ID_LEN = 128

_REQUEST_ID_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.:"
)


def sanitize_request_id(raw: Optional[str]) -> Optional[str]:
    """A client id fit to echo into logs and traces, else ``None``.

    Only a conservative token alphabet is honoured — the id is written
    verbatim into the access log and trace files, so arbitrary header
    bytes must not ride along.
    """
    if not raw:
        return None
    raw = raw.strip()
    if not raw or len(raw) > MAX_REQUEST_ID_LEN:
        return None
    if not all(ch in _REQUEST_ID_OK for ch in raw):
        return None
    return raw


def new_request_id() -> str:
    """A fresh 16-hex-char request id."""
    return uuid.uuid4().hex[:16]


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`ServiceState`.

    Pass ``sock`` to adopt an already-bound, already-listening socket
    instead of binding a fresh one — fleet workers all accept from the
    one listener their supervisor bound before forking (the supervisor
    keeps its copy open, so a worker death never drops the accept
    queue; see :mod:`repro.service.supervisor`).
    """

    # Connection threads are daemonic; the drain logic in
    # shutdown_gracefully — not thread joining — bounds shutdown time.
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, config: ServiceConfig, sock: Optional[socket.socket] = None
    ) -> None:
        self.state = ServiceState(config)
        if sock is None:
            super().__init__((config.host, config.port), _RequestHandler)
            return
        host, port = sock.getsockname()[:2]
        super().__init__((host, port), _RequestHandler, bind_and_activate=False)
        self.socket.close()  # the unbound placeholder TCPServer made
        self.socket = sock
        self.server_address = (host, port)
        # what HTTPServer.server_bind would have derived on bind
        self.server_name = host
        self.server_port = port

    @property
    def port(self) -> int:
        return self.server_address[1]


class _RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"
    #: socket timeout — bounds how long an idle keep-alive connection
    #: can pin a thread during drain
    timeout = 30
    #: headers and body leave in separate writes; without TCP_NODELAY,
    #: Nagle + delayed ACK adds ~40ms to every keep-alive response
    disable_nagle_algorithm = True

    server: ServiceServer  # narrowed for type checkers

    #: X-Request-Id for the request currently being handled on this
    #: connection thread; set at the top of _dispatch.
    _request_id: str = "-"

    #: trace id of the request currently being handled ("-" while the
    #: tracing layer is disabled); echoed as X-Trace-Id and stamped
    #: into the envelope and the access log.
    _trace_id: str = "-"

    #: parsed query string of the request currently being handled.
    _query: dict = {}

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        if self.server.state.config.verbose:
            sys.stderr.write(
                "service: %s %s\n" % (self.address_string(), format % args)
            )

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self._send_body(status, body, "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode(), content_type)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self._request_id)
        if self._trace_id != "-":
            self.send_header("X-Trace-Id", self._trace_id)
        if status in (429, 503):
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)
        OBS.add(f"service.responses.{status // 100}xx")

    def _read_body(self) -> dict:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or 0)
        except ValueError:
            raise ApiError(400, "bad_request", "invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            # The unread body would be misparsed as the next request on
            # this keep-alive connection; drop the connection instead.
            self.close_connection = True
            raise ApiError(
                413,
                "payload_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ApiError(400, "bad_request", "request body is required")
        try:
            body = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ApiError(400, "bad_request", f"body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise ApiError(400, "bad_request", "body must be a JSON object")
        return body

    # -- dispatch ------------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        state = self.server.state
        path, _, query = self.path.partition("?")
        self._query = parse_qs(query)
        if path != "/" and path.endswith("/"):
            path = path.rstrip("/")
        name = route_name(path)
        rid = sanitize_request_id(self.headers.get("X-Request-Id"))
        self._request_id = rid or new_request_id()
        trace = None
        if state.flight.enabled:
            # Honour inbound W3C trace context; start fresh otherwise.
            context = parse_traceparent(self.headers.get("traceparent"))
            trace = (
                OBS.start_trace(context[0], context[1])
                if context
                else OBS.start_trace()
            )
            trace.notes["request_id"] = self._request_id
            self._trace_id = trace.trace_id
        else:
            self._trace_id = "-"
        state.request_started()
        started = perf_counter()
        status = 500
        try:
            with OBS.span(
                "service.request",
                method=method,
                route=name,
                request_id=self._request_id,
            ):
                status = self._respond(state, method, path)
        finally:
            OBS.end_trace()
            state.request_finished()
            elapsed = perf_counter() - started
            OBS.add("service.requests")
            OBS.add(f"service.requests.{name}")
            OBS.observe("service.latency_seconds", elapsed)
            OBS.observe(f"service.latency_seconds.{name}", elapsed)
            OBS.mark("service.requests")
            if trace is not None:
                state.flight.record(
                    trace,
                    status,
                    name,
                    elapsed,
                    request_id=self._request_id,
                    shard=state.config.shard_index,
                )
            if state.config.log_json:
                self._access_log(method, path, name, status, elapsed, trace)
            if state.config.verbose:
                self.log_message("%s %s -> %d (%.1fms)", method, path, status, elapsed * 1e3)

    def _access_log(
        self, method: str, path: str, route: str, status: int, elapsed: float, trace
    ) -> None:
        """One structured JSON line per request, on stderr.

        stderr on purpose: stdout carries the daemon's parseable
        output; the access log must never interleave with it.  Shard
        routing outcomes noted on the trace (``proxied``/``owner``,
        ``fallback_local``) ride along so a cross-shard request can be
        followed through both workers' logs by its ``trace_id``.
        """
        extra = {}
        if trace is not None:
            notes = trace.notes
            if notes.get("proxied"):
                extra["proxied"] = True
                extra["owner_shard"] = notes.get("owner")
            if notes.get("fallback_local"):
                extra["fallback_local"] = True
        write_access_log(
            self._request_id,
            method,
            path,
            route,
            status,
            elapsed,
            trace_id=None if trace is None else trace.trace_id,
            shard=self.server.state.config.shard_index,
            client=self.client_address[0],
            **extra,
        )

    def _envelope_trace_id(self) -> Optional[str]:
        return None if self._trace_id == "-" else self._trace_id

    def _profile_seconds(self) -> float:
        raw = self._query.get("seconds", [str(PROFILE_DEFAULT_SECONDS)])[-1]
        try:
            seconds = float(raw)
        except ValueError:
            raise ApiError(400, "bad_request", f"unparseable seconds {raw!r}")
        if not 0.0 < seconds <= PROFILE_MAX_SECONDS:
            raise ApiError(
                400,
                "bad_request",
                f"seconds must be in (0, {PROFILE_MAX_SECONDS:.0f}]",
                got=seconds,
            )
        return seconds

    def _respond(self, state: ServiceState, method: str, path: str) -> int:
        try:
            if method == "GET" and path == "/metrics":
                # Served even while draining — the last scrape before
                # shutdown is the one that captures the drain.
                self._send_text(200, render_metrics(state), PROMETHEUS_CONTENT_TYPE)
                return 200
            if state.draining:
                OBS.add("service.rejected.draining")
                raise ApiError(503, "draining", "server is shutting down")
            if method == "GET" and path.startswith("/trace/"):
                payload = handle_trace(
                    state, {"trace_id": path[len("/trace/") :]}
                )
                self._send_json(
                    200, envelope(payload, trace_id=self._envelope_trace_id())
                )
                return 200
            if method == "GET" and path == "/debug/profile":
                seconds = self._profile_seconds()
                try:
                    text = profile_collapsed(seconds)
                except ProfilerBusy:
                    raise ApiError(
                        429, "profiler_busy", "a profile is already running"
                    )
                self._send_text(200, text, "text/plain; charset=utf-8")
                return 200
            handler = ROUTES.get((method, path))
            if handler is None:
                if path in KNOWN_PATHS:
                    raise ApiError(
                        405, "method_not_allowed", f"{method} not allowed on {path}"
                    )
                raise ApiError(
                    404,
                    "unknown_route",
                    f"no such endpoint: {path}",
                    available=sorted(f"{m} {p}" for m, p in ROUTES),
                )
            body = self._read_body() if method == "POST" else None
            payload = handler(state, body)
            self._send_json(
                200, envelope(payload, trace_id=self._envelope_trace_id())
            )
            return 200
        except ApiError as error:
            self._send_json(error.status, self._error_body(error.status, error.body()))
            return error.status
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
            return 499
        except Exception as error:  # noqa: BLE001 — must answer something
            OBS.add("service.errors.internal")
            body = {
                "error": {
                    "status": 500,
                    "code": "internal",
                    "message": f"{type(error).__name__}: {error}",
                }
            }
            self._send_json(500, self._error_body(500, body))
            return 500

    def _error_body(self, status: int, body: dict) -> dict:
        """Envelope an error body.

        ``retry_after`` mirrors the Retry-After header _send_body puts
        on 429/503 so envelope-only clients never have to parse headers.
        """
        retry_after = 1 if status in (429, 503) else None
        return error_envelope(
            body["error"],
            retry_after=retry_after,
            trace_id=self._envelope_trace_id(),
        )


# -- lifecycle ---------------------------------------------------------------


def make_server(
    config: Optional[ServiceConfig] = None,
    sock: Optional[socket.socket] = None,
) -> ServiceServer:
    """Bind a server (``port=0`` picks an ephemeral port); not started.

    With *sock*, adopt that listener instead of binding (fleet workers).
    """
    return ServiceServer(config or ServiceConfig(), sock=sock)


def write_ready_file(path: str, document: dict) -> None:
    """Atomically publish a JSON readiness document at *path*.

    Written tmp-then-rename so a poller never reads a half-written
    file: the document either is not there yet or is complete.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2)
        stream.write("\n")
    os.replace(tmp, path)


def start_background(
    config: Optional[ServiceConfig] = None,
) -> Tuple[ServiceServer, threading.Thread]:
    """Bind and run a server on a daemon thread (tests, benches, loadgen)."""
    server = make_server(config)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service", daemon=True
    )
    thread.start()
    return server, thread


def shutdown_gracefully(server: ServiceServer, drain_seconds: Optional[float] = None) -> bool:
    """Stop accepting, drain in-flight requests, release resources.

    Returns True when the drain completed inside the deadline; False
    when lingering requests had to be abandoned (their daemon threads
    die with the process).
    """
    state = server.state
    state.begin_drain()
    server.shutdown()  # stop the accept loop (blocks until it exits)
    timeout = state.config.drain_seconds if drain_seconds is None else drain_seconds
    drained = state.wait_idle(timeout)
    state.close()
    server.server_close()
    if not drained:
        OBS.add("service.shutdown.abandoned", state.inflight_requests)
    return drained


def serve(config: Optional[ServiceConfig] = None) -> int:
    """Run the daemon in the foreground until SIGINT/SIGTERM.

    ``workers > 1`` runs the supervised pre-fork fleet; otherwise one
    process serves directly.  (A fleet *worker* — ``shard_index`` set —
    also lands in :func:`serve_worker`: the supervisor fills in its
    shard before calling down.)
    """
    config = config or ServiceConfig()
    if config.workers > 1 and config.shard_index is None:
        from .supervisor import serve_fleet  # avoid a module cycle

        return serve_fleet(config)
    return serve_worker(config)


def serve_worker(
    config: ServiceConfig, sock: Optional[socket.socket] = None
) -> int:
    """One serving process, foreground, until SIGINT/SIGTERM.

    Signal handlers are installed *before* the listener binds, so a
    SIGTERM delivered during startup exits promptly instead of hitting
    the default handler (kill) or — the old bug — arming the full drain
    machinery against a server that never started accepting.
    """
    stop_requested = threading.Event()
    box = {"server": None, "serving": False}

    def request_stop(signum, frame) -> None:
        stop_requested.set()
        server = box["server"]
        if server is not None and box["serving"]:
            # shutdown() must not run on the thread inside
            # serve_forever (it would deadlock); hand it off.  Guarded
            # by `serving`: shutdown() on a server whose accept loop
            # never ran blocks forever on its is-shut-down event.
            threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, request_stop)
        except ValueError:
            pass  # not the main thread (tests calling serve_worker directly)

    delay = float(os.environ.get(BIND_DELAY_ENV, "0") or 0.0)
    if delay > 0 and stop_requested.wait(delay):
        for signum, old in previous.items():
            signal.signal(signum, old)
        print("repro-service stopped before binding", file=sys.stderr, flush=True)
        return 0

    server = make_server(config, sock=sock)
    state = server.state
    box["server"] = server
    control: Optional[ControlServer] = None
    if state.is_fleet_worker:
        control = ControlServer(
            state, socket_path(state.config.control_dir, state.config.shard_index)
        ).start()
    if state.config.ready_file and not state.is_fleet_worker:
        write_ready_file(
            state.config.ready_file,
            {
                "host": state.config.host,
                "port": server.port,
                "workers": 1,
                "pids": [os.getpid()],
                "supervisor_pid": os.getpid(),
                "control_dir": None,
                "restarts": 0,
            },
        )
    host = state.config.host
    shard = (
        f", shard {state.config.shard_index}/{state.fleet_size}"
        if state.is_fleet_worker
        else ""
    )
    print(
        f"repro-service listening on http://{host}:{server.port} "
        f"(threads={state.config.threads}, "
        f"queue_limit={state.config.queue_limit}, "
        f"lru_size={state.config.lru_size}{shard})",
        file=sys.stderr,
        flush=True,
    )
    drained = True
    try:
        if not stop_requested.is_set():
            box["serving"] = True
            if stop_requested.is_set():
                # Signal raced the flag: either its handler saw
                # serving=False (no shutdown spawned) or it spawned a
                # shutdown() that parks on a daemon thread; both are
                # safe because serve_forever never runs.
                box["serving"] = False
            else:
                server.serve_forever(poll_interval=0.2)
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except ValueError:
                pass
        state.begin_drain()
        drained = state.wait_idle(state.config.drain_seconds)
        if control is not None:
            control.close()
        state.close()
        try:
            server.server_close()
        except OSError:
            pass
        print(
            "repro-service stopped"
            + ("" if drained else " (abandoned in-flight requests)"),
            file=sys.stderr,
            flush=True,
        )
    return 0


def wait_until_ready(
    host: str, port: int, timeout: float = 5.0
) -> bool:
    """Poll until the listening socket accepts connections."""
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return True
        except OSError:
            continue
    return False
