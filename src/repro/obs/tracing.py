"""Distributed trace context: ids, W3C ``traceparent``, active traces.

One *trace* follows one request across every thread and process that
touches it: the front worker that accepted the HTTP connection, the
pool thread that ran the heavy compute, and — for cross-shard requests
— the owning worker reached over its control socket.  The pieces:

* **ids** — a 32-hex-char ``trace_id`` names the whole request; every
  span inside it gets a 16-hex-char ``span_id`` and a ``parent_id``
  pointing at the span that caused it (the enclosing span on the same
  thread, or the remote caller's span across a thread/process hop).
* **traceparent** — the W3C Trace Context wire form,
  ``00-<trace_id>-<span_id>-01``, honoured on inbound HTTP requests
  and carried on the control-socket ``invoke`` hop so an owner
  worker's spans parent correctly under the proxying worker's request
  span.  :func:`parse_traceparent` is strict: anything malformed is
  treated as absent (a fresh trace starts) rather than poisoning logs
  with attacker-controlled bytes.
* **:class:`ActiveTrace`** — the per-request span collector.  The
  observer keeps at most one active trace per thread
  (:meth:`~repro.obs.core.Observer.start_trace`); pool threads and
  control-invoke handlers *adopt* the caller's trace so their spans
  land in the same collection.  Worker processes join a trace by id
  (``start_trace(trace_id, remote_parent_id)``) and hand their
  :meth:`~ActiveTrace.span_dicts` back for
  :meth:`~ActiveTrace.add_span_dicts`.  Finished service traces feed
  the flight recorder (:mod:`repro.obs.flight`); an experiment CLI run
  under ``--timings``/``--trace-out`` is one trace too.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: The only traceparent version we emit.
TRACEPARENT_VERSION = "00"

_HEX = frozenset("0123456789abcdef")

# Ids come straight from the kernel CSPRNG.  ``uuid.uuid4().hex`` reads
# the same 16 urandom bytes but spends ~4x longer massaging them into a
# UUID object first — measurable here, because the always-on flight
# recorder mints three ids on every warm request.
_urandom = os.urandom


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (all-zero is 2^-128 — never checked)."""
    return _urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return _urandom(8).hex()


def _is_hex(text: str, length: int) -> bool:
    return len(text) == length and all(ch in _HEX for ch in text)


def format_traceparent(trace_id: str, span_id: str) -> str:
    """``00-<trace_id>-<span_id>-01`` (sampled flag always set — we only
    propagate context for traces the flight recorder is watching)."""
    return f"{TRACEPARENT_VERSION}-{trace_id}-{span_id}-01"


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a traceparent header, else ``None``.

    Strict by design: wrong field count, non-hex digits, the reserved
    ``ff`` version, or all-zero ids all read as "no context" — the
    server then starts a fresh trace instead of trusting garbage.
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id = parts[0], parts[1], parts[2]
    if not _is_hex(version, 2) or version == "ff":
        return None
    if not _is_hex(trace_id, 32) or set(trace_id) == {"0"}:
        return None
    if not _is_hex(span_id, 16) or set(span_id) == {"0"}:
        return None
    if not _is_hex(parts[3], 2):
        return None
    return trace_id, span_id


#: Field order of the bare-tuple span form the observer collects (see
#: ``repro.obs.core._Span.__exit__``); zipped with these keys when a
#: kept trace is exported via :meth:`ActiveTrace.span_dicts`.
SPAN_TUPLE_KEYS = (
    "name",
    "trace_id",
    "span_id",
    "parent_id",
    "start",
    "duration",
    "depth",
    "pid",
    "tid",
    "attrs",
)


class ActiveTrace:
    """The span collection for one in-flight request or CLI run.

    Thread-safe: the request thread, its pool thread and (on the owner
    side of an ``invoke``) a control handler thread may all finish
    spans into it concurrently.  Safe *without a lock*: the collection
    is append-only, and ``list.append``/``list.extend``/``list(...)``
    are each atomic under the GIL — this object sits on the hot path of
    every request, and a per-request lock allocation plus two acquire/
    release pairs per span is measurable there.  ``notes`` is a small
    free-form side channel (shard routing outcome, request id) the
    access log and the flight recorder read after the request finishes.
    """

    __slots__ = ("trace_id", "remote_parent_id", "pid", "notes", "_spans")

    def __init__(
        self, trace_id: Optional[str] = None, remote_parent_id: Optional[str] = None
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        #: the caller's span id when the context arrived over the wire
        #: (HTTP traceparent or control-socket invoke), else ``None``
        self.remote_parent_id = remote_parent_id
        #: the process this trace was started in — spans finished into
        #: it are stamped with this pid (one getpid per trace, not per
        #: span; a worker process joins by starting its own ActiveTrace
        #: under the same trace id)
        self.pid = os.getpid()
        self.notes: Dict[str, Any] = {}
        self._spans: List[Any] = []

    def add_span(self, record: Any) -> None:
        self._spans.append(record)

    def add_span_dicts(self, spans: List[Mapping[str, Any]]) -> None:
        """Fold already-serialised span dicts in (remote owner spans)."""
        self._spans.extend(spans)

    def spans(self) -> List[Any]:
        return list(self._spans)

    def span_dicts(self) -> List[Dict[str, Any]]:
        """Every finished span as a JSON-able dict, completion order.

        Accepts both collected forms: wire dicts (merged remote spans)
        and bare tuples (spans finished in this process).
        """
        return [
            span if isinstance(span, dict) else dict(zip(SPAN_TUPLE_KEYS, span))
            for span in list(self._spans)
        ]

    def __len__(self) -> int:
        return len(self._spans)
