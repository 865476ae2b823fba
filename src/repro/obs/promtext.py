"""Prometheus text exposition for observer snapshots.

:func:`render_prometheus` turns an :class:`~repro.obs.core.ObsSnapshot`
into the Prometheus text format (version 0.0.4) — the lingua franca of
every scraper, ``promtool`` and Grafana agent:

* counters render as ``TYPE counter`` samples;
* gauges (names the observer saw via ``set_gauge``) and live
  :meth:`~repro.obs.core.Observer.rates` (suffixed ``_per_second``)
  render as ``TYPE gauge``;
* histograms render as ``TYPE histogram`` families: cumulative
  ``_bucket{le="..."}`` samples on the geometric grid of
  :mod:`repro.obs.hist`, a final ``le="+Inf"`` bucket, and the
  ``_sum`` / ``_count`` pair.

Dotted observer names map to metric names by replacing every
non-``[a-zA-Z0-9_:]`` character with ``_`` and prefixing ``repro_``
(``service.latency_seconds`` → ``repro_service_latency_seconds``).

The module also ships :func:`parse_exposition` and
:func:`validate_exposition` — a deliberately strict reader used by the
load generator (server-side quantiles from a ``/metrics`` delta), the
test suite and the CI metrics-smoke job, so a malformed exposition
fails loudly long before a real Prometheus ever scrapes it.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Tuple

from .core import ObsSnapshot
from .hist import Histogram

#: Prefix applied to every exported metric name.
NAMESPACE = "repro"

#: Content type ``GET /metrics`` answers with.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
# A sample line, optionally carrying an OpenMetrics exemplar suffix:
#   name{labels} value [# {exemplar_labels} exemplar_value [timestamp]]
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+#\s+\{(?P<exemplar_labels>[^}]*)\}"
    r"\s+(?P<exemplar_value>\S+)(?:\s+(?P<exemplar_ts>\S+))?)?$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"$')


def metric_name(name: str) -> str:
    """``service.latency_seconds`` → ``repro_service_latency_seconds``."""
    sanitized = _INVALID_CHARS.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{NAMESPACE}_{sanitized}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def render_prometheus(
    snapshot: ObsSnapshot,
    rates: Optional[Mapping[str, float]] = None,
    exemplars: Optional[Mapping[str, Mapping[float, Tuple[str, float]]]] = None,
) -> str:
    """The snapshot as Prometheus text exposition (see module docstring).

    *rates* (name → events/sec, from ``Observer.rates()``) render as
    additional ``_per_second`` gauges — they are live, window-derived
    values and therefore never part of the snapshot itself.

    *exemplars* maps a histogram's dotted name to
    ``{bucket upper bound: (trace_id, observed value)}`` (the
    :meth:`~repro.obs.flight.FlightRecorder.exemplars` shape); matching
    ``_bucket`` samples gain an OpenMetrics exemplar suffix
    ``# {trace_id="..."} value`` linking the bucket to a trace
    resolvable via ``GET /trace/{id}``.
    """
    lines: List[str] = []
    used: set = set()

    def emit(name: str, kind: str, source: str) -> str:
        """HELP/TYPE header with collision-proofed family name."""
        family = metric_name(name)
        while family in used:
            family += "_"  # two dotted names sanitising identically
        used.add(family)
        lines.append(f"# HELP {family} {kind} {source}")
        lines.append(f"# TYPE {family} {kind}")
        return family

    # Histograms claim their family names first: a histogram's _bucket/
    # _sum/_count samples must never collide with a plain counter.
    for name in sorted(snapshot.hists):
        hist = snapshot.hists[name]
        family = emit(name, "histogram", name)
        bucket_exemplars = dict((exemplars or {}).get(name, {}))
        for bound, cumulative in hist.cumulative_buckets():
            line = f'{family}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            exemplar = bucket_exemplars.get(bound)
            if exemplar is not None:
                trace_id, value = exemplar
                line += f' # {{trace_id="{trace_id}"}} {_format_value(float(value))}'
            lines.append(line)
        lines.append(f'{family}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{family}_sum {_format_value(hist.sum)}")
        lines.append(f"{family}_count {hist.count}")

    for name in sorted(snapshot.counters):
        kind = "gauge" if name in snapshot.gauges else "counter"
        family = emit(name, kind, name)
        lines.append(f"{family} {_format_value(snapshot.counters[name])}")

    for name in sorted(rates or {}):
        family = emit(f"{name}.per_second", "gauge", f"{name} (rate)")
        lines.append(f"{family} {_format_value(float(rates[name]))}")

    return "\n".join(lines) + "\n"


# -- reading it back ---------------------------------------------------------

#: One parsed sample: ``(labels, value)``.
Sample = Tuple[Dict[str, str], float]


class ExpositionError(ValueError):
    """Raised by :func:`parse_exposition`/:func:`validate_exposition`."""


def _parse_float(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ExpositionError(f"unparseable sample value {text!r}") from None


def _parse_labels(label_text: Optional[str], raw: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    if label_text:
        for part in label_text.split(","):
            label = _LABEL.match(part.strip())
            if label is None:
                raise ExpositionError(f"unparseable label in line {raw!r}")
            labels[label.group("key")] = label.group("value")
    return labels


def parse_exposition(text: str) -> Dict[str, List[Sample]]:
    """Parse exposition text into ``{sample name: [(labels, value)]}``.

    ``_bucket``/``_sum``/``_count`` samples keep their suffixed names;
    types declared by ``# TYPE`` lines land under the reserved key
    ``"__types__"`` mapping family name to type.  OpenMetrics exemplar
    suffixes are accepted on sample lines and validated (labels and
    value must parse) — read them back with :func:`parse_exemplars`.
    Raises :class:`ExpositionError` on any malformed line.
    """
    samples: Dict[str, List[Sample]] = {}
    types: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                types[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ExpositionError(f"unparseable exposition line {raw!r}")
        labels = _parse_labels(match.group("labels"), raw)
        if match.group("exemplar_labels") is not None:
            _parse_labels(match.group("exemplar_labels"), raw)
            _parse_float(match.group("exemplar_value"))
        samples.setdefault(match.group("name"), []).append(
            (labels, _parse_float(match.group("value")))
        )
    samples["__types__"] = [(types, 0.0)]  # piggy-back the type table
    return samples


def parse_exemplars(text: str) -> List[Dict[str, object]]:
    """Every OpenMetrics exemplar in *text*, in document order.

    Each entry: ``{"sample": sample name, "labels": sample labels,
    "exemplar": exemplar labels, "value": exemplar value}``.  Assumes
    *text* already passed :func:`parse_exposition`/:func:`validate_exposition`.
    """
    exemplars: List[Dict[str, object]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None or match.group("exemplar_labels") is None:
            continue
        exemplars.append(
            {
                "sample": match.group("name"),
                "labels": _parse_labels(match.group("labels"), raw),
                "exemplar": _parse_labels(match.group("exemplar_labels"), raw),
                "value": _parse_float(match.group("exemplar_value")),
            }
        )
    return exemplars


def exposition_types(parsed: Dict[str, List[Sample]]) -> Dict[str, str]:
    """The ``# TYPE`` table of a :func:`parse_exposition` result."""
    return dict(parsed.get("__types__", [({}, 0.0)])[0][0])


def validate_exposition(text: str) -> Dict[str, List[Sample]]:
    """Validate exposition *text*; returns the parse on success.

    Checks the contract a scraper relies on:

    * every sample line parses and its family has a ``# TYPE``;
    * histogram families have ``_bucket`` samples with parseable ``le``
      labels in strictly ascending order, non-decreasing cumulative
      counts, a ``+Inf`` bucket, and ``_sum``/``_count`` samples with
      ``+Inf`` bucket == ``_count``.

    Raises :class:`ExpositionError` on the first violation.
    """
    parsed = parse_exposition(text)
    types = exposition_types(parsed)

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            family = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if family and types.get(family) == "histogram":
                return family
        return sample_name

    for name in parsed:
        if name == "__types__":
            continue
        family = family_of(name)
        if family not in types:
            raise ExpositionError(f"sample {name!r} has no # TYPE declaration")

    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = parsed.get(f"{family}_bucket")
        if not buckets:
            raise ExpositionError(f"histogram {family!r} has no _bucket samples")
        pairs: List[Tuple[float, float]] = []
        for labels, value in buckets:
            if "le" not in labels:
                raise ExpositionError(f"histogram {family!r} bucket missing 'le'")
            pairs.append((_parse_float(labels["le"]), value))
        bounds = [bound for bound, _ in pairs]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ExpositionError(
                f"histogram {family!r} buckets not strictly ascending: {bounds}"
            )
        counts = [count for _, count in pairs]
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ExpositionError(
                f"histogram {family!r} cumulative counts decrease: {counts}"
            )
        if not math.isinf(bounds[-1]):
            raise ExpositionError(f"histogram {family!r} lacks the +Inf bucket")
        count_samples = parsed.get(f"{family}_count")
        sum_samples = parsed.get(f"{family}_sum")
        if not count_samples or not sum_samples:
            raise ExpositionError(f"histogram {family!r} lacks _sum/_count")
        if count_samples[0][1] != counts[-1]:
            raise ExpositionError(
                f"histogram {family!r}: +Inf bucket {counts[-1]} != "
                f"_count {count_samples[0][1]}"
            )

    # Exemplar contract: a _bucket exemplar's observed value must lie
    # inside that bucket, i.e. not exceed its ``le`` bound (with a hair
    # of float tolerance — bucket indexing nudges boundary values).
    for exemplar in parse_exemplars(text):
        labels = exemplar["labels"]
        if str(exemplar["sample"]).endswith("_bucket") and "le" in labels:
            bound = _parse_float(labels["le"])  # type: ignore[index]
            value = float(exemplar["value"])  # type: ignore[arg-type]
            if not math.isinf(bound) and value > bound * (1.0 + 1e-9):
                raise ExpositionError(
                    f"exemplar value {value} exceeds bucket le={bound} "
                    f"on sample {exemplar['sample']!r}"
                )
    return parsed


def histogram_bucket_counts(
    parsed: Dict[str, List[Sample]], family: str
) -> Dict[float, float]:
    """Non-cumulative per-``le`` counts of *family*'s finite buckets.

    Subtracting two of these dicts (per matching bound) yields the
    distribution of the interval between two scrapes — the basis of the
    load generator's server-side quantiles.
    """
    buckets = parsed.get(f"{family}_bucket", [])
    pairs = sorted(
        (_parse_float(labels["le"]), value)
        for labels, value in buckets
        if "le" in labels and not math.isinf(_parse_float(labels["le"]))
    )
    counts: Dict[float, float] = {}
    previous = 0.0
    for bound, cumulative in pairs:
        counts[bound] = cumulative - previous
        previous = cumulative
    return counts


def delta_bucket_counts(
    before: Mapping[float, float], after: Mapping[float, float]
) -> List[Tuple[float, float]]:
    """``after - before`` per bucket bound, ascending, negatives clamped."""
    return [
        (bound, max(0.0, after.get(bound, 0.0) - before.get(bound, 0.0)))
        for bound in sorted(set(before) | set(after))
    ]


def snapshot_histogram(hist: Histogram) -> str:  # pragma: no cover - convenience
    """Render a single histogram family (debugging aid)."""
    snapshot = ObsSnapshot({}, frozenset(), {"histogram": hist})
    return render_prometheus(snapshot)
