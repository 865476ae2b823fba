"""The always-on flight recorder: a ring of recent request traces.

Every request runs under an :class:`~repro.obs.tracing.ActiveTrace`
(cheap — spans collect as bare tuples on the request's trace object),
and a daemon cannot keep them all.  When the request finishes a
**tail-sampling** decision keeps the interesting ones in a bounded
per-worker ring:

* every error (status >= 400, which covers 429 and 503) is kept;
* every slow-tail request (duration over ``slow_threshold``) is kept;
* of the boring rest, a deterministic hash of the trace id keeps a
  ``sample_rate`` fraction.  Deterministic on purpose: the proxying
  worker and the owning worker of a cross-shard request make the
  *same* decision from the same trace id, so a kept trace is kept on
  both sides and ``GET /trace/{id}`` can stitch a complete tree.
  (Keep reasons can still diverge — only the proxy sees the end-to-end
  duration — so a slow-but-not-sampled trace may stitch partially;
  the architecture doc calls this out.)

The recorder also owns the **exemplar store**: the most recent kept
trace id per ``service.latency_seconds`` bucket, rendered as
OpenMetrics exemplars on ``/metrics`` so a p99 bucket links straight
to a trace id resolvable via ``GET /trace/{id}``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from .hist import bucket_index, bucket_upper
from .tracing import ActiveTrace

#: Default ring capacity (finished traces kept per worker process).
DEFAULT_CAPACITY = 256

#: Default slow-tail threshold (seconds): anything slower is kept.
DEFAULT_SLOW_THRESHOLD = 0.25

#: Default probabilistic keep rate for unremarkable requests.
DEFAULT_SAMPLE_RATE = 0.01

#: Hash-sampling modulus: the first 8 hex chars of the trace id map to
#: [0, 1) with 32-bit resolution.
_SAMPLE_SPACE = float(0xFFFFFFFF)


def sample_decision(trace_id: str, sample_rate: float) -> bool:
    """Deterministic keep/drop for *trace_id* at *sample_rate*.

    Every worker computes the same answer for the same trace id, which
    is what makes cross-shard stitching reliable under sampling.
    """
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    try:
        point = int(trace_id[:8], 16) / _SAMPLE_SPACE
    except (ValueError, TypeError):
        return False
    return point < sample_rate


class FlightRecorder:
    """Bounded, thread-safe ring of finished request span-trees."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        enabled: bool = True,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.slow_threshold = slow_threshold
        self.sample_rate = sample_rate
        #: master switch: False → record() drops everything and the
        #: server skips starting traces entirely (the bench baseline)
        self.enabled = enabled
        self._lock = threading.Lock()
        self._ring: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: latency-bucket index → (trace_id, observed seconds); the
        #: newest kept trace per bucket becomes that bucket's exemplar
        self._exemplars: Dict[int, Tuple[str, float]] = {}

    # -- recording -----------------------------------------------------------

    def keep_reason(self, status: int, duration: float, trace_id: str) -> Optional[str]:
        """Why this request survives tail-sampling, or ``None`` to drop."""
        if status >= 400:
            return "error"
        if duration >= self.slow_threshold:
            return "slow"
        if sample_decision(trace_id, self.sample_rate):
            return "sampled"
        return None

    def record(
        self,
        trace: Optional[ActiveTrace],
        status: int,
        route: str,
        duration: float,
        request_id: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> Optional[str]:
        """Apply tail-sampling to a finished request; returns the keep
        reason when the trace entered the ring, ``None`` when dropped."""
        if trace is None or not self.enabled:
            return None
        reason = self.keep_reason(status, duration, trace.trace_id)
        if reason is None:
            return None
        entry = {
            "trace_id": trace.trace_id,
            "route": route,
            "status": status,
            "duration_ms": round(duration * 1e3, 3),
            "ts": time.time(),
            "request_id": request_id,
            "shard": shard,
            "kept": reason,
            "notes": dict(trace.notes),
            "spans": trace.span_dicts(),
        }
        with self._lock:
            self._ring[trace.trace_id] = entry
            self._ring.move_to_end(trace.trace_id)
            while len(self._ring) > self.capacity:
                self._ring.popitem(last=False)
            if duration > 0:
                self._exemplars[bucket_index(duration)] = (trace.trace_id, duration)
        return reason

    # -- reading back --------------------------------------------------------

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The ring entry for *trace_id*, or ``None`` (evicted/never kept)."""
        with self._lock:
            entry = self._ring.get(trace_id)
            return None if entry is None else dict(entry)

    def summaries(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Newest-first one-line summaries of the kept traces."""
        with self._lock:
            entries = list(self._ring.values())
        return [
            {
                "trace_id": entry["trace_id"],
                "route": entry["route"],
                "status": entry["status"],
                "duration_ms": entry["duration_ms"],
                "ts": entry["ts"],
                "kept": entry["kept"],
                "spans": len(entry["spans"]),
            }
            for entry in reversed(entries[-max(0, int(limit)) :])
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def exemplars(self) -> Dict[float, Tuple[str, float]]:
        """``{bucket upper bound: (trace_id, observed seconds)}`` for the
        latency histogram — the exposition's exemplar source."""
        with self._lock:
            return {
                bucket_upper(index): pair for index, pair in self._exemplars.items()
            }
