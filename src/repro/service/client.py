"""A minimal stdlib client for the prediction service.

One :class:`ServiceClient` wraps one persistent keep-alive connection —
use one client per thread (the load generator gives each worker its
own).  Error responses surface as :class:`ServiceError` carrying the
server's structured code/status; transport failures surface as the
underlying ``OSError``.

Every request carries an ``X-Request-Id`` (a caller-supplied one, or a
fresh 16-hex-char id per request); the id the server echoed back is
kept on :attr:`ServiceClient.last_request_id` so a failure can be
correlated with the server's access log and trace.

429 handling is opt-in: construct with ``retries=N`` and the client
sleeps out the server's ``Retry-After`` hint (stretched by capped
exponential backoff plus jitter) before re-issuing a shed request, up
to N times.  Only 429 is retried — it is the one status the server
sends specifically to mean "same request, later, will work"; 5xx may
not be idempotent-safe and 4xx will never succeed.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import uuid
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

#: Default first-retry delay (seconds) when the server sent no usable
#: ``Retry-After``; doubles per attempt up to :data:`BACKOFF_CAP`.
BACKOFF_BASE = 0.1
#: Ceiling on any single retry sleep, jitter included.
BACKOFF_CAP = 5.0
#: Jitter stretches a delay by up to this fraction (never shrinks it —
#: the server's Retry-After is a promise about when capacity returns).
JITTER_FRACTION = 0.25


class ServiceError(Exception):
    """A structured (non-2xx) response from the service.

    ``retry_after`` carries the envelope's in-band backpressure hint
    (seconds) when the server sent one (429/503), else ``None``.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        details: Optional[dict] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.details = details or {}
        self.retry_after = retry_after


#: One /predict key: ``(name, predictor)``, ``(name, predictor, scale)``,
#: ``(name, predictor, scale, seed_offset)`` or an explicit body dict.
PredictKey = Union[Tuple[str, ...], Dict[str, Any]]


def unwrap_envelope(document: Any) -> Any:
    """The ``data`` payload of a v1 success envelope; pass-through for
    anything else (error envelopes, non-dict documents)."""
    if (
        isinstance(document, dict)
        and document.get("v") == 1
        and document.get("ok") is True
        and "data" in document
    ):
        return document["data"]
    return document


class ServiceClient:
    """Thread-unsafe persistent-connection client (one per thread)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: float = 30.0,
        retries: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: extra attempts after a 429 (0 = never retry, the default)
        self.retries = retries
        #: injectable for tests; production callers leave the defaults
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._connection: Optional[http.client.HTTPConnection] = None
        #: X-Request-Id echoed by the server on the most recent response
        #: (None before the first request).
        self.last_request_id: Optional[str] = None
        #: X-Trace-Id from the most recent response — the distributed
        #: trace id, resolvable via ``GET /trace/{id}`` while the
        #: fleet's flight recorders retain it (None when tracing is off).
        self.last_trace_id: Optional[str] = None
        #: parsed Retry-After (seconds) from the most recent response,
        #: or None when the header was absent/unparseable.
        self.last_retry_after: Optional[float] = None
        #: 429s absorbed by retry sleeps over this client's lifetime.
        self.retries_performed = 0

    def _retry_delay(self, attempt: int) -> float:
        """Sleep before retry *attempt* (0-based): honour the server's
        ``Retry-After`` floor, back off exponentially, stretch by
        jitter, and cap the result."""
        floor = self.last_retry_after or 0.0
        delay = max(floor, BACKOFF_BASE * (2.0 ** attempt))
        delay *= 1.0 + JITTER_FRACTION * self._rng.random()
        return min(BACKOFF_CAP, delay)

    # -- transport -----------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
        request_id: Optional[str],
    ) -> Tuple[int, bytes]:
        """One request/response cycle; updates :attr:`last_request_id`.

        Retries once on a stale keep-alive connection (the server may
        have closed it between requests); real refusals propagate.
        """
        headers = {"X-Request-Id": request_id or uuid.uuid4().hex[:16]}
        if payload:
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            connection = self._connect()
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, BrokenPipeError):
                self.close()
                if attempt:
                    raise
        self.last_request_id = response.getheader("X-Request-Id") or headers["X-Request-Id"]
        self.last_trace_id = response.getheader("X-Trace-Id")
        retry_after = response.getheader("Retry-After")
        try:
            self.last_retry_after = (
                max(0.0, float(retry_after)) if retry_after is not None else None
            )
        except ValueError:
            self.last_retry_after = None  # HTTP-date form; treat as absent
        return response.status, raw

    def request_raw(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, dict]:
        """``(status, parsed_body)`` without raising on error statuses.

        With ``retries > 0``, a 429 is retried after sleeping out
        :meth:`_retry_delay`; any other status returns immediately.
        """
        payload = None if body is None else json.dumps(body).encode()
        attempt = 0
        while True:
            status, raw = self._roundtrip(method, path, payload, request_id)
            if status != 429 or attempt >= self.retries:
                break
            self._sleep(self._retry_delay(attempt))
            self.retries_performed += 1
            attempt += 1
        try:
            document = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            document = {"raw": raw.decode(errors="replace")}
        return status, document

    def request_text(
        self, method: str, path: str, request_id: Optional[str] = None
    ) -> Tuple[int, str]:
        """``(status, body text)`` for non-JSON endpoints (``/metrics``)."""
        status, raw = self._roundtrip(method, path, None, request_id)
        return status, raw.decode(errors="replace")

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        request_id: Optional[str] = None,
    ) -> dict:
        """Like :meth:`request_raw` but envelope-aware: unwraps the v1
        success envelope to its ``data`` payload and raises a typed
        :class:`ServiceError` on non-2xx."""
        status, document = self.request_raw(method, path, body, request_id)
        if 200 <= status < 300:
            return unwrap_envelope(document)
        error = document.get("error", {}) if isinstance(document, dict) else {}
        retry_after = error.get("retry_after")
        if not isinstance(retry_after, (int, float)) or isinstance(retry_after, bool):
            retry_after = self.last_retry_after
        raise ServiceError(
            status,
            error.get("code", "unknown"),
            error.get("message", f"HTTP {status}"),
            error.get("details"),
            retry_after=retry_after,
        )

    # -- endpoint conveniences -----------------------------------------------

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def benchmarks(self) -> dict:
        return self.request("GET", "/benchmarks")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def fleet(self) -> dict:
        return self.request("GET", "/fleet")

    def trace(self, trace_id: str) -> dict:
        """The stitched span tree of one retained trace."""
        return self.request("GET", f"/trace/{trace_id}")

    def metrics(self) -> str:
        """The Prometheus text exposition body from ``GET /metrics``."""
        status, text = self.request_text("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, "metrics_unavailable", f"HTTP {status}")
        return text

    def artifacts(self, name: str, scale: int = 1, seed_offset: int = 0) -> dict:
        return self.request(
            "POST",
            "/artifacts",
            {"name": name, "scale": scale, "seed_offset": seed_offset},
        )

    def predict(
        self, name: str, predictor: str, scale: int = 1, seed_offset: int = 0
    ) -> dict:
        return self.request(
            "POST",
            "/predict",
            {
                "name": name,
                "predictor": predictor,
                "scale": scale,
                "seed_offset": seed_offset,
            },
        )

    def train(
        self,
        name: str,
        predictor: str,
        scale: int = 1,
        seed_offset: int = 0,
        split: Optional[float] = None,
    ) -> dict:
        """Train (or fetch the cached) learned model for *predictor* on
        the benchmark's trace prefix; the payload carries the versioned
        model document."""
        body: Dict[str, Any] = {
            "name": name,
            "predictor": predictor,
            "scale": scale,
            "seed_offset": seed_offset,
        }
        if split is not None:
            body["split"] = split
        return self.request("POST", "/train", body)

    def predict_many(self, keys: Iterable[PredictKey]) -> List[dict]:
        """Evaluate many ``/predict`` keys over the one keep-alive
        connection, returning payloads in input order.

        Each key is ``(name, predictor[, scale[, seed_offset]])`` or an
        explicit request-body dict.  Errors raise :class:`ServiceError`
        naming the offending key in ``details["key"]`` — partial results
        are not returned (the caller retries the whole batch or narrows
        it), matching the all-or-nothing contract of :meth:`request`.
        """
        results: List[dict] = []
        for key in keys:
            if isinstance(key, dict):
                body = dict(key)
            else:
                parts = tuple(key)
                if not 2 <= len(parts) <= 4:
                    raise ValueError(
                        "predict key must be (name, predictor[, scale[, seed_offset]])"
                        f", got {key!r}"
                    )
                body = {"name": parts[0], "predictor": parts[1]}
                if len(parts) > 2:
                    body["scale"] = parts[2]
                if len(parts) > 3:
                    body["seed_offset"] = parts[3]
            try:
                results.append(self.request("POST", "/predict", body))
            except ServiceError as error:
                error.details = dict(error.details, key=body)
                raise
        return results

    def machine(
        self,
        name: str,
        site: Optional[str] = None,
        max_states: int = 6,
        scale: int = 1,
        seed_offset: int = 0,
    ) -> dict:
        body: Dict[str, Any] = {
            "name": name,
            "max_states": max_states,
            "scale": scale,
            "seed_offset": seed_offset,
        }
        if site is not None:
            body["site"] = site
        return self.request("POST", "/machine", body)

    def plan(
        self,
        name: str,
        max_states: int = 6,
        max_size_factor: Optional[float] = None,
        scale: int = 1,
        seed_offset: int = 0,
    ) -> dict:
        body: Dict[str, Any] = {
            "name": name,
            "max_states": max_states,
            "scale": scale,
            "seed_offset": seed_offset,
        }
        if max_size_factor is not None:
            body["max_size_factor"] = max_size_factor
        return self.request("POST", "/plan", body)
