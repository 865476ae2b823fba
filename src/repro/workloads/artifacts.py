"""Run artifacts: one instrumented pass, an on-disk cache, parallel fan-out.

Every experiment consumes three products of a workload run — the branch
trace, the frame-local path-history tables, and the executed-instruction
count.  Historically each was collected by its own interpreter
execution; a full table regeneration therefore ran every benchmark
three times.  :func:`get_artifacts` collects all three in a **single**
instrumented pass and memoises the bundle both in memory and on disk,
so a warm invocation performs zero interpreter executions.

Disk cache layout (default ``.repro-cache/``, overridable via the
``REPRO_CACHE_DIR`` environment variable; set it to an empty string to
disable persistence):

* ``{name}-s{scale}-o{seed_offset}-h{bits}-v{VERSION}.trace`` — the
  branch trace in the ``KBT1`` codec of
  :mod:`repro.profiling.tracefile`;
* ``{name}-s{scale}-o{seed_offset}-h{bits}-v{VERSION}.aux`` — a
  ``KBA1`` envelope (zlib-compressed JSON) holding the step count and
  the path-history tables, stamped with the same format version.

Writes are atomic (write to a temporary file in the cache directory,
then ``os.replace``), and any corrupt, truncated, or version-mismatched
entry falls back to recomputation — the cache can always be deleted.

:func:`generate_artifacts` fans cache population for many
(benchmark, scale, seed_offset) specs out across a
``ProcessPoolExecutor``; workers fill the shared disk cache and the
parent then loads every entry as a hit, so parallel and serial runs
produce identical artifacts.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import time
import zlib
from itertools import repeat
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..ir import BranchSite
from ..obs import OBS, ObsSnapshot
from ..profiling import PatternTable, Trace, instrumented_run
from ..profiling.patterns import counts_from_json, counts_to_json
from ..profiling.tracefile import (
    TraceFormatError,
    trace_from_bytes,
    trace_to_bytes,
)

#: Bump when the artifact contents or envelope schema change; stale
#: entries are ignored (filename mismatch) or rejected (payload stamp).
FORMAT_VERSION = 1

AUX_MAGIC = b"KBA1"

DEFAULT_CACHE_DIR = ".repro-cache"

#: Path-history depth every run collects; :func:`repro.workloads.get_profile`
#: builds its global tables at the same depth.
HISTORY_BITS = 8


class ArtifactFormatError(Exception):
    """Raised internally when a cached artifact entry is malformed."""


@dataclass(frozen=True)
class RunArtifacts:
    """Everything one instrumented run of a workload produces."""

    name: str
    scale: int
    seed_offset: int
    trace: Trace
    path_tables: Dict[BranchSite, PatternTable]
    steps: int


def cache_dir() -> Optional[str]:
    """The on-disk cache directory, or ``None`` when persistence is off."""
    directory = os.environ.get("REPRO_CACHE_DIR")
    if directory is None:
        return DEFAULT_CACHE_DIR
    return directory or None


def _entry_stem(name: str, scale: int, seed_offset: int) -> str:
    return f"{name}-s{scale}-o{seed_offset}-h{HISTORY_BITS}-v{FORMAT_VERSION}"


def _entry_paths(directory: str, name: str, scale: int, seed_offset: int) -> Tuple[str, str]:
    stem = os.path.join(directory, _entry_stem(name, scale, seed_offset))
    return stem + ".trace", stem + ".aux"


# -- collection (the single instrumented pass) ------------------------------


def _collect(name: str, scale: int, seed_offset: int) -> RunArtifacts:
    """Run the workload once, collecting trace, path tables and steps."""
    from .benchmarks import get_program, get_workload

    args, input_values = get_workload(name).seeded_args(scale, seed_offset)
    started = time.perf_counter()
    with OBS.span(
        "workload.run", benchmark=name, scale=scale, seed_offset=seed_offset
    ) as span:
        trace, tables, result = instrumented_run(
            get_program(name), args, input_values, HISTORY_BITS
        )
        span.set(steps=result.steps, events=len(trace))
    elapsed = time.perf_counter() - started
    OBS.add("artifacts.interpreter.runs")
    OBS.add("artifacts.interpreter.seconds", elapsed)
    OBS.observe("artifacts.run_seconds", elapsed)
    OBS.add("artifacts.trace_events", len(trace))
    return RunArtifacts(name, scale, seed_offset, trace, tables, result.steps)


# -- envelope codec ----------------------------------------------------------


def _aux_to_bytes(artifacts: RunArtifacts) -> bytes:
    document = {
        "version": FORMAT_VERSION,
        "name": artifacts.name,
        "scale": artifacts.scale,
        "seed_offset": artifacts.seed_offset,
        "history_bits": HISTORY_BITS,
        "steps": artifacts.steps,
        "events": len(artifacts.trace),
        "path_tables": [
            {
                "function": site.function,
                "block": site.block,
                "counts": counts_to_json(table.counts),
            }
            for site, table in artifacts.path_tables.items()
        ],
    }
    return AUX_MAGIC + zlib.compress(json.dumps(document).encode(), 6)


def _aux_from_bytes(data: bytes) -> dict:
    if data[:4] != AUX_MAGIC:
        raise ArtifactFormatError(f"bad aux magic {data[:4]!r}")
    try:
        document = json.loads(zlib.decompress(data[4:]).decode())
    except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ArtifactFormatError(f"corrupt aux payload: {error}") from None
    if document.get("version") != FORMAT_VERSION:
        raise ArtifactFormatError(
            f"unsupported artifact version {document.get('version')}"
        )
    return document


def _load_entry(
    directory: str, name: str, scale: int, seed_offset: int
) -> Optional[RunArtifacts]:
    """Load a cached entry; ``None`` on miss or any malformed content."""
    trace_path, aux_path = _entry_paths(directory, name, scale, seed_offset)
    started = time.perf_counter()
    bytes_read = 0
    try:
        with open(trace_path, "rb") as stream:
            payload = stream.read()
        bytes_read += len(payload)
        trace = trace_from_bytes(payload)
        with open(aux_path, "rb") as stream:
            payload = stream.read()
        bytes_read += len(payload)
        document = _aux_from_bytes(payload)
        if (
            document.get("name") != name
            or document.get("scale") != scale
            or document.get("seed_offset") != seed_offset
            or document.get("history_bits") != HISTORY_BITS
            or document.get("events") != len(trace)
        ):
            raise ArtifactFormatError("aux envelope does not match trace")
        tables: Dict[BranchSite, PatternTable] = {}
        for entry in document["path_tables"]:
            site = BranchSite(entry["function"], entry["block"])
            tables[site] = PatternTable(
                HISTORY_BITS, counts_from_json(entry["counts"], HISTORY_BITS)
            )
        steps = document["steps"]
        if not isinstance(steps, int):
            raise ArtifactFormatError("steps is not an integer")
    except FileNotFoundError:
        return None
    except (
        ArtifactFormatError,
        TraceFormatError,
        OSError,
        KeyError,
        TypeError,
        ValueError,
    ):
        return None
    finally:
        OBS.add("artifacts.cache.load_seconds", time.perf_counter() - started)
    OBS.add("artifacts.cache.bytes_read", bytes_read)
    return RunArtifacts(name, scale, seed_offset, trace, tables, steps)


def _atomic_write(directory: str, path: str, payload: bytes) -> None:
    handle, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _store_entry(directory: str, artifacts: RunArtifacts) -> None:
    trace_path, aux_path = _entry_paths(
        directory, artifacts.name, artifacts.scale, artifacts.seed_offset
    )
    try:
        os.makedirs(directory, exist_ok=True)
        trace_payload = trace_to_bytes(artifacts.trace)
        aux_payload = _aux_to_bytes(artifacts)
        _atomic_write(directory, trace_path, trace_payload)
        _atomic_write(directory, aux_path, aux_payload)
    except OSError:
        return  # persistence is best-effort; the computed value still flows
    OBS.add("artifacts.cache.stores")
    OBS.add("artifacts.cache.bytes_written", len(trace_payload) + len(aux_payload))


# -- the public API ----------------------------------------------------------


def get_artifacts(
    name: str,
    *,
    scale: Optional[int] = None,
    seed_offset: Optional[int] = None,
) -> RunArtifacts:
    """The run artifacts of one (workload, scale, seed_offset) triple.

    Checks the disk cache first; on a miss (or a corrupt/stale entry)
    performs exactly one instrumented interpreter pass and persists the
    result.  The returned bundle is shared — treat it as read-only.
    """
    # Normalise before memoising so calls that spell the defaults out
    # and calls that omit them share one cache entry.
    return _get_artifacts_cached(
        name,
        1 if scale is None else scale,
        0 if seed_offset is None else seed_offset,
    )


@functools.lru_cache(maxsize=64)
def _get_artifacts_cached(name: str, scale: int, seed_offset: int) -> RunArtifacts:
    directory = cache_dir()
    if directory is not None:
        cached = _load_entry(directory, name, scale, seed_offset)
        if cached is not None:
            OBS.add("artifacts.cache.hits")
            return cached
    OBS.add("artifacts.cache.misses")
    artifacts = _collect(name, scale, seed_offset)
    if directory is not None:
        _store_entry(directory, artifacts)
    return artifacts


def clear_memory_cache() -> None:
    """Drop the in-process artifact memo (and the profile memo derived
    from it); the disk cache is untouched."""
    _get_artifacts_cached.cache_clear()
    from .benchmarks import _profile

    _profile.cache_clear()


def cached_on_disk(name: str, scale: int = 1, seed_offset: int = 0) -> bool:
    """Whether a disk entry exists for the triple (it may still be stale)."""
    directory = cache_dir()
    if directory is None:
        return False
    trace_path, aux_path = _entry_paths(directory, name, scale, seed_offset)
    return os.path.exists(trace_path) and os.path.exists(aux_path)


def disk_cache_entries() -> List[str]:
    """Artifact file names currently present in the disk cache.

    The directory may be modified — or removed outright — by a
    concurrent writer or :func:`clear_disk_cache` (e.g. another request
    thread of the service daemon) between the existence check and the
    scan; that race answers ``[]``, never raises.
    """
    directory = cache_dir()
    if directory is None:
        return []
    try:
        entries = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        entry for entry in entries if entry.endswith((".trace", ".aux"))
    )


def clear_disk_cache() -> int:
    """Delete every artifact file in the cache directory; returns count.

    Entries deleted by a concurrent clearer between the scan and the
    unlink are skipped (and not counted), never an error.
    """
    directory = cache_dir()
    if directory is None:
        return 0
    removed = 0
    for entry in disk_cache_entries():
        try:
            os.unlink(os.path.join(directory, entry))
            removed += 1
        except OSError:
            pass
    return removed


def disk_cache_bytes() -> int:
    """Total size of the artifact files in the disk cache.

    Entries that vanish between the scan and the stat contribute zero
    bytes — a concurrent writer/clearer must not turn accounting into
    an exception.
    """
    directory = cache_dir()
    if directory is None:
        return 0
    total = 0
    for entry in disk_cache_entries():
        try:
            total += os.path.getsize(os.path.join(directory, entry))
        except OSError:
            pass
    return total


# -- parallel fan-out --------------------------------------------------------

Spec = Tuple[str, int, int]


def _normalize_spec(spec: Sequence) -> Spec:
    name, scale, seed_offset = (list(spec) + [1, 0])[:3]
    return (str(name), int(scale), int(seed_offset))


def _generate_one(spec: Spec) -> Tuple[Spec, float]:
    """Populate the cache for one spec in the current process."""
    name, scale, seed_offset = spec
    started = time.perf_counter()
    get_artifacts(name, scale=scale, seed_offset=seed_offset)
    return spec, time.perf_counter() - started


def _generate_one_worker(
    spec: Spec, trace_id: Optional[str], parent_id: Optional[str]
) -> Tuple[Spec, float, ObsSnapshot, List[Dict[str, Any]]]:
    """Subprocess worker: generate one spec and report its telemetry.

    The worker joins the parent's trace under the parent's open span
    (the way a control-socket ``invoke`` joins a request) and ships its
    span dicts home with this call's observer snapshot, so the parent's
    trace can show where the parallel prewarm actually spent its time.
    """
    OBS.reset()  # a forked worker inherits the parent's counters
    trace = OBS.start_trace(trace_id, parent_id)
    try:
        spec, seconds = _generate_one(spec)
    finally:
        OBS.end_trace()
    return spec, seconds, OBS.snapshot(), trace.span_dicts()


def generate_artifacts(
    specs: Iterable[Sequence], jobs: Optional[int] = None
) -> List[Tuple[Spec, float]]:
    """Ensure artifacts exist for every ``(name, scale[, seed_offset])``.

    With ``jobs`` > 1 and a usable disk cache, the uncached specs are
    generated in worker processes that write the shared disk cache; the
    parent then re-loads each entry (a guaranteed hit), so downstream
    consumers see byte-identical artifacts to a serial run.  Falls back
    to in-process generation when persistence is disabled or only one
    spec is pending.  Returns ``(spec, seconds)`` per generated spec.
    """
    normalized: List[Spec] = []
    for spec in specs:
        entry = _normalize_spec(spec)
        if entry not in normalized:
            normalized.append(entry)
    if jobs is None:
        jobs = os.cpu_count() or 1
    pending = [spec for spec in normalized if not cached_on_disk(*spec)]
    timings: List[Tuple[Spec, float]] = []
    if cache_dir() is None or jobs <= 1 or len(pending) <= 1:
        for spec in pending:
            timings.append(_generate_one(spec))
        return timings
    from concurrent.futures import ProcessPoolExecutor

    trace = OBS.current_trace()
    work = (
        pending,
        repeat(trace.trace_id if trace is not None else None),
        repeat(OBS.current_span_id()),
    )
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        for spec, seconds, snapshot, spans in pool.map(_generate_one_worker, *work):
            timings.append((spec, seconds))
            # The whole worker snapshot merges under ``workers.`` so the
            # parent's own ``artifacts.*`` counters stay per-process:
            # counters sum, gauges overwrite, histograms merge
            # bucket-wise.  Worker spans join the parent's trace.
            OBS.merge_snapshot(snapshot, counter_prefix="workers.")
            if trace is not None:
                trace.add_span_dicts(spans)
    # Pull the worker-produced entries into this process's memo so the
    # experiment code that follows never re-runs the interpreter.
    for name, scale, seed_offset in normalized:
        get_artifacts(name, scale=scale, seed_offset=seed_offset)
    return timings
