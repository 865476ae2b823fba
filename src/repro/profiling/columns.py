"""Columnar trace view: the evaluation engine's batch-kernel substrate.

A :class:`TraceColumns` is a read-only, per-trace-snapshot view of one
:class:`~repro.profiling.trace.Trace` exposing the event stream as
columns instead of per-event tuples:

* **site-id column** — the interned site-id stream, run-length
  partitioned (``run_sites``/``run_starts``/``run_lengths``): the trace
  is a sequence of maximal runs of equal site id, so per-site counts
  and per-key groupings work on runs instead of events;
* **direction column** — the 0/1 outcomes, unpacked on demand from the
  trace's bit-packed storage (``numpy.unpackbits`` when numpy is
  importable, a pure-Python table expansion otherwise);
* **site grouping (CSR)** — a stable permutation of events grouped by
  site id plus per-site offsets, giving every numpy kernel each site's
  full direction sequence, in trace order, as one contiguous slice;
* **history registers** (:meth:`TraceColumns.history`) — the k-bit
  shift-register contents before every event, for the two registers
  the paper's strategies read: the *global* register of the last k
  outcomes (event order, and the same column in grouped order) and the
  *local* per-site register (grouped order, reset at each site's first
  event).  This module is the only one that knows how a register
  column is packed, ordered and cached;
* **shared bookkeeping** — per-site execution/taken counts and the
  first-occurrence site order, computed once per view and shared by
  every predictor result and the closed-form fast path.

Three consumers read the view: the evaluation engine's kernels, the
learned-model trainer and the pattern tables of
:meth:`~repro.profiling.patterns.ProfileData.from_columns`, which
aggregate the grouped site ids and the ``"local"``/``"global-grouped"``
registers instead of replaying the events.

numpy is strictly optional: :func:`get_numpy` returns ``None`` when it
is not importable or when ``REPRO_NO_NUMPY`` is set (the CI no-numpy
leg).  The columns are then plain ``array``/``bytes`` objects and the
evaluation engine scores every online predictor with the sequential
reference instead of its numpy kernel, so only the accessors the
closed form and training need (``runs``, ``site_executions``,
``site_taken``) keep a pure-Python branch.  Results are identical
either way; only the speed differs.  :func:`loaded_numpy` is the
non-importing twin for callers that must not pull numpy into a process
that has not loaded it yet (the profile build in fleet workers).
"""

from __future__ import annotations

import os
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..predictors.kernels import group_starts, history_pack, index_dtype, run_bounds

_numpy_module = None
_numpy_checked = False


def get_numpy():
    """The ``numpy`` module, or ``None`` when unavailable or disabled.

    Set ``REPRO_NO_NUMPY`` (to any non-empty value) to force the
    no-numpy route (the sequential reference for online predictors) —
    the environment guard the CI no-numpy leg and the parity tests use.
    The import result is cached; the environment variable is consulted
    live.
    """
    global _numpy_module, _numpy_checked
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    if not _numpy_checked:
        _numpy_checked = True
        try:
            import numpy

            _numpy_module = numpy
        except ImportError:
            _numpy_module = None
    return _numpy_module


def loaded_numpy():
    """The ``numpy`` module if this process has already imported it and
    ``REPRO_NO_NUMPY`` is unset, else ``None`` — never imports it.

    Importing numpy costs a fresh process tens of megabytes, so code
    that runs in service workers uses this to take a numpy route only
    where the memory is already paid for.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    return sys.modules.get("numpy")


#: 256-entry table: packed byte -> its eight LSB-first bits, used by the
#: pure-Python unpack path (one dict-free lookup per 8 events).
_BYTE_BITS = [bytes((byte >> bit) & 1 for bit in range(8)) for byte in range(256)]


def unpack_bits(packed: bytes, count: int) -> bytearray:
    """Expand *count* LSB-first packed bits into one byte per bit."""
    if count == 0:
        return bytearray()
    out = bytearray().join(_BYTE_BITS[byte] for byte in packed[: (count + 7) // 8])
    del out[count:]
    return out


def _buffer_bytes(value) -> int:
    """Total bytes of the buffers (numpy arrays, ``array``, ``bytes``)
    in *value*, descending into tuples and lists."""
    if isinstance(value, (tuple, list)):
        return sum(_buffer_bytes(item) for item in value)
    try:
        return memoryview(value).nbytes
    except TypeError:
        return 0


class TraceColumns:
    """Columnar snapshot of one trace (see the module docstring).

    Instances are built by :meth:`Trace.columns` and cached per event
    count; they must be treated as immutable.  ``np`` is the numpy
    module when the vectorized path is active, ``None`` without numpy —
    the engine consults it once per call to pick kernels or the
    sequential reference.
    """

    def __init__(self, sites, site_ids: array, packed_directions: bytes) -> None:
        self.np = get_numpy()
        self.sites = sites
        self.n_sites = len(sites)
        self.n_events = len(site_ids)
        np = self.np
        if np is not None:
            # Zero-copy views: the array's buffer and the packed blob
            # are wrapped, not copied; only the bit expansion allocates.
            self.site_ids = np.frombuffer(site_ids, dtype=np.intc) if len(
                site_ids
            ) else np.zeros(0, dtype=np.intc)
            self.directions = np.unpackbits(
                np.frombuffer(packed_directions, dtype=np.uint8),
                count=self.n_events,
                bitorder="little",
            )
        else:
            self.site_ids = site_ids
            self.directions = bytes(unpack_bits(packed_directions, self.n_events))
        self._runs: Optional[Tuple[Sequence[int], Sequence[int], Sequence[int]]] = None
        self._grouped = None
        self._grouped_starts = None
        self._histories: Dict[Tuple[str, int], object] = {}
        self._kernel_cache: Dict[tuple, object] = {}
        self._executions: Optional[Dict[int, int]] = None
        self._taken: Optional[List[int]] = None

    def cached(self, key: tuple, build):
        """Memoize a family-specific derived column under *key* for
        this snapshot.

        Kernels share outcome-derived columns (run boundaries, scoped
        groupings) across predictor instances: the values depend only on
        the trace contents and the key's parameters, never on predictor
        state, so one snapshot computes each at most once.  The global
        and local history registers are not among them: they come from
        :meth:`history`.
        """
        try:
            return self._kernel_cache[key]
        except KeyError:
            value = build()
            self._kernel_cache[key] = value
            return value

    def _site_dtype(self):
        """The smallest unsigned dtype that holds every site id."""
        return self.np.min_scalar_type(max(self.n_sites - 1, 0))

    def nbytes(self) -> int:
        """Bytes of every column this view holds: the site-id column it
        shares with its trace, the directions and each cached column."""
        return _buffer_bytes(
            (
                self.site_ids,
                self.directions,
                self._runs,
                self._grouped,
                self._grouped_starts,
                list(self._histories.values()),
                list(self._kernel_cache.values()),
            )
        )

    # -- run partition ---------------------------------------------------------

    def runs(self) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """``(run_sites, run_starts, run_lengths)`` — the maximal runs of
        equal site id, in trace order: site ids in the grouped column's
        dtype, starts and lengths in the index dtype."""
        if self._runs is None:
            np = self.np
            n = self.n_events
            if np is not None:
                ids = self.site_ids
                change = np.empty(n, dtype=bool)
                change[:1] = True
                np.not_equal(ids[1:], ids[:-1], out=change[1:])
                starts, lengths = run_bounds(np, change)
                run_sites = np.take(ids, starts).astype(self._site_dtype())
                self._runs = (run_sites, starts, lengths)
            else:
                index_code = "i" if n < 1 << 31 else "q"
                run_sites = array("i")
                run_starts = array(index_code)
                run_lengths = array(index_code)
                previous = -1
                for index, sid in enumerate(self.site_ids):
                    if sid != previous:
                        run_sites.append(sid)
                        run_starts.append(index)
                        run_lengths.append(1)
                        previous = sid
                    else:
                        run_lengths[-1] += 1
                self._runs = (run_sites, run_starts, run_lengths)
        return self._runs

    # -- site grouping (CSR) ---------------------------------------------------

    def grouped(self):
        """``(order, sorted_ids, grouped_dirs, new_site)`` — events stably
        sorted by site id (numpy path only).

        ``order`` is the stable permutation itself (event indices grouped
        by site, each site's in trace order, in the index dtype);
        ``sorted_ids`` holds the site ids in the smallest unsigned dtype
        that fits ``n_sites - 1``; ``new_site[i]`` is True where
        ``sorted_ids[i]`` starts a new site's segment; each segment of
        ``grouped_dirs`` is that site's direction sequence in original
        trace order.
        """
        if self._grouped is None:
            np = self.np
            if np is None:
                raise RuntimeError("grouped() is numpy-path only")
            # Gather with argsort's own int64 order, then narrow it.
            order = np.argsort(self.site_ids, kind="stable")
            sorted_ids = self.site_ids[order].astype(self._site_dtype())
            grouped_dirs = self.directions[order]
            order = order.astype(index_dtype(np, self.n_events))
            new_site = np.empty(self.n_events, dtype=bool)
            if self.n_events:
                new_site[0] = True
                np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new_site[1:])
            self._grouped = (order, sorted_ids, grouped_dirs, new_site)
        return self._grouped

    def grouped_starts(self):
        """Per grouped event, the index where its site's segment starts
        (cached companion of :meth:`grouped` for history kernels)."""
        if self._grouped_starts is None:
            self._grouped_starts = group_starts(self.np, self.grouped()[3])
        return self._grouped_starts

    # -- history registers -----------------------------------------------------

    def history(self, kind: str, bits: int):
        """The *bits*-bit history register before every event (numpy
        path only), cached per ``(kind, bits)``.

        * ``"global"`` — the register of the last *bits* outcomes of the
          whole stream, in event order;
        * ``"global-grouped"`` — the same column in :meth:`grouped`
          order;
        * ``"local"`` — one register per site, in :meth:`grouped` order,
          starting from zero at each site's first event.

        Registers hold the newest outcome in the LSB and start all-zero,
        exactly like a freshly reset predictor, in the smallest unsigned
        dtype that holds *bits* bits (see
        :func:`~repro.predictors.kernels.history_pack`): widen a column
        before shifting it further.
        """
        key = (kind, bits)
        column = self._histories.get(key)
        if column is None:
            if kind == "global":
                column = history_pack(self.np, self.directions, bits)
            elif kind == "global-grouped":
                column = self.np.take(self.history("global", bits), self.grouped()[0])
            elif kind == "local":
                column = history_pack(
                    self.np, self.grouped()[2], bits, self.grouped_starts()
                )
            else:
                raise ValueError(f"unknown history register kind {kind!r}")
            self._histories[key] = column
        return column

    # -- shared bookkeeping ----------------------------------------------------

    def site_executions(self) -> Dict[int, int]:
        """``sid -> execution count`` for executed sites, in
        first-occurrence order (the per-site result ordering the
        sequential reference produces)."""
        if self._executions is None:
            np = self.np
            if np is not None:
                # Each site's first event is where its grouped segment
                # starts; sorting those event indices gives the order.
                order, sorted_ids, _, new_site = self.grouped()
                sids = sorted_ids[new_site][np.argsort(order[new_site])]
                counts = np.bincount(self.site_ids, minlength=self.n_sites)
                self._executions = dict(zip(sids.tolist(), counts[sids].tolist()))
            else:
                executions: Dict[int, int] = {}
                run_sites, _, run_lengths = self.runs()
                for sid, length in zip(run_sites, run_lengths):
                    executions[sid] = executions.get(sid, 0) + length
                self._executions = executions
        return self._executions

    def site_taken(self) -> List[int]:
        """Per site id, how many of its events were taken."""
        if self._taken is None:
            np = self.np
            if np is not None:
                self._taken = [
                    int(value)
                    for value in np.bincount(
                        self.site_ids, weights=self.directions, minlength=self.n_sites
                    )
                ]
            else:
                taken = [0] * self.n_sites
                dirs = self.directions
                run_sites, run_starts, run_lengths = self.runs()
                for sid, start, length in zip(run_sites, run_starts, run_lengths):
                    taken[sid] += dirs.count(1, start, start + length)
                self._taken = taken
        return self._taken
