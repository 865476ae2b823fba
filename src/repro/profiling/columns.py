"""Columnar trace view: the evaluation engine's batch-kernel substrate.

A :class:`TraceColumns` is a read-only, per-trace-snapshot view of one
:class:`~repro.profiling.trace.Trace` exposing the event stream as
columns instead of per-event tuples:

* **site-id column** — the interned site-id stream, and its partition
  into maximal runs of equal site id (``run_sites``/``run_starts``/
  ``run_lengths``), so per-key groupings can sort runs instead of
  events;
* **direction column** — the 0/1 outcomes, unpacked from the trace's
  bit-packed storage (``numpy.unpackbits`` when numpy is loaded, a
  pure-Python expansion otherwise);
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
learned-model trainer and, with numpy loaded, the pattern tables of
:meth:`~repro.profiling.patterns.ProfileData.from_trace`, which
aggregate the grouped site ids and the ``"local"``/``"global-grouped"``
registers instead of replaying the events.

numpy costs a fresh process tens of megabytes, so one rule decides
whether it runs: a view uses numpy only if it is already loaded
(:func:`loaded_numpy`), and only code about to run a numpy kernel
loads it (:func:`get_numpy`).  Without numpy the columns are plain
``array``/``bytes`` objects, only the per-site counts and the trainer's
pattern pass work, and the engine scores every online predictor with
the sequential reference.  Results are identical either way.
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

    Views, the profile build and the trace decode use this: they take
    a numpy route only where the memory is already paid for.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    return sys.modules.get("numpy")


#: Maps the digits of a binary numeral to the bytes 0 and 1.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def unpack_bits(packed: bytes, count: int) -> bytearray:
    """Expand *count* LSB-first packed bits into one byte per bit.

    The packed bytes, read little-endian, are one integer whose bit *i*
    is event *i*, so its binary numeral read backwards is the expansion.
    One expression, so each intermediate is freed as the next is built:
    about 2 bytes per event at peak.
    """
    if count == 0:
        return bytearray()
    width = (count + 7) // 8
    value = int.from_bytes(packed[:width], "little")
    return bytearray(
        format(value, f"0{width * 8}b")[: -count - 1 : -1]
        .encode("ascii")
        .translate(_DIGIT_BITS)
    )


#: Maps the bytes 0 and 1 to the digits of a binary numeral.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def pack_bits(bits: bytes) -> bytes:
    """Pack one-byte-per-bit 0/1 *bits* LSB-first: the inverse of
    :func:`unpack_bits`, through the same binary numeral."""
    if not bits:
        return b""
    value = int(bits[::-1].translate(_BIT_DIGITS), 2)
    return value.to_bytes((len(bits) + 7) // 8, "little")


#: The direction (low bit) of each one-byte event code ``2 * site +
#: direction``, as a ``bytes.translate`` table.
DIRECTION = bytes(code & 1 for code in range(256))


def low_bytes(view: memoryview) -> memoryview:
    """The least significant byte of every item, as a strided view."""
    size = view.itemsize
    return view.cast("B")[0 if sys.byteorder == "little" else size - 1 :: size]


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

    Instances are built by :meth:`Trace.columns` and cached on their
    (immutable) trace; they must be treated as immutable too.  ``np`` is
    :func:`loaded_numpy` at construction — the engine consults it once
    per call to pick kernels or the sequential reference.
    """

    def __init__(self, sites, site_ids: array, packed_directions: bytes) -> None:
        self.np = loaded_numpy()
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
        equal site id, in trace order (numpy path only): site ids in the
        grouped column's dtype, starts and lengths in the index dtype."""
        if self._runs is None:
            np = self.np
            if np is None:
                raise RuntimeError("runs() is numpy-path only")
            ids = self.site_ids
            change = np.empty(self.n_events, dtype=bool)
            change[:1] = True
            np.not_equal(ids[1:], ids[:-1], out=change[1:])
            starts, lengths = run_bounds(np, change)
            run_sites = np.take(ids, starts).astype(self._site_dtype())
            self._runs = (run_sites, starts, lengths)
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
                # Without numpy one pass fills both per-site counts.
                executions: Dict[int, int] = {}
                taken = [0] * self.n_sites
                for sid, direction in zip(self.site_ids, self.directions):
                    executions[sid] = executions.get(sid, 0) + 1
                    taken[sid] += direction
                self._executions, self._taken = executions, taken
        return self._executions

    def site_taken(self) -> List[int]:
        """Per site id, how many of its events were taken."""
        if self._taken is None:
            np = self.np
            if np is None:
                self.site_executions()
            else:
                self._taken = [
                    int(value)
                    for value in np.bincount(
                        self.site_ids, weights=self.directions, minlength=self.n_sites
                    )
                ]
        return self._taken
