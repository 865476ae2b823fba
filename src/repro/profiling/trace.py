"""Branch traces.

A trace is the paper's instrumentation output: the ordered sequence of
(branch number, direction) events of one program run, together with the
table mapping branch numbers back to static branch sites.  Events are
stored column-wise — an ``array`` of site indices plus a
:class:`PackedDirections` holding the direction bits **bit-packed**, the
same LSB-first layout the ``KBT1`` trace file uses on disk — which
keeps a multi-million-event trace compact in memory (one bit per
outcome, exactly the on-disk cost before compression) and lets
:meth:`Trace.columns` hand the evaluation engine a zero-copy columnar
view of both streams.

A view costs far more per event than its trace, so the views of all
traces in a process share one budget, :data:`VIEW_BYTES`: past it,
:meth:`Trace.columns` drops the views of the least recently viewed
traces, which rebuild theirs on their next call.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..ir import BranchSite
from .columns import TraceColumns, loaded_numpy, unpack_bits


#: Total :meth:`~repro.profiling.columns.TraceColumns.nbytes` of the
#: columnar views all traces of this process keep cached.
VIEW_BYTES = 32 << 20

_views_lock = threading.Lock()
#: ``id(trace) -> weakref`` of every trace holding a view, least
#: recently viewed first.
_viewed: "OrderedDict[int, weakref.ref]" = OrderedDict()


def _keep_view(trace: "Trace", view: TraceColumns) -> None:
    """Cache *view* on *trace* as the most recently viewed, then drop the
    least recently viewed traces' views while the total is over
    :data:`VIEW_BYTES`; *view* itself is never dropped.  Sizes are
    measured afresh on every call, since kernels keep adding columns to
    a view after it is handed out."""
    with _views_lock:
        trace._columns = view
        key = id(trace)
        _viewed[key] = weakref.ref(trace)
        _viewed.move_to_end(key)
        held = []
        total = 0
        for key, ref in list(_viewed.items()):
            other = ref()
            if other is None or other._columns is None:
                del _viewed[key]
                continue
            size = other._columns.nbytes()
            held.append((key, other, size))
            total += size
        for key, other, size in held[:-1]:
            if total <= VIEW_BYTES:
                break
            other._columns = None
            del _viewed[key]
            total -= size


class PackedDirections:
    """A mutable sequence of 0/1 direction bits, stored bit-packed.

    The storage layout is the trace file's: LSB-first within each byte,
    so bit *i* lives at ``data[i >> 3] & (1 << (i & 7))``.  The class
    supports the small sequence surface the trace layer needs —
    ``append``/``extend``, ``len``, indexing, slicing, iteration and
    equality — plus :meth:`packed` (the raw bytes, trailing bits
    zeroed) and :meth:`unpacked` (a one-byte-per-bit expansion, never
    kept, for the per-event iteration paths).
    """

    __slots__ = ("_data", "_length")

    def __init__(self, bits: Iterable[int] = ()) -> None:
        self._data = bytearray()
        self._length = 0
        self.extend(bits)

    @classmethod
    def from_packed(cls, data: bytes, count: int) -> "PackedDirections":
        """Wrap *count* bits of LSB-first packed *data*.

        Only ``ceil(count / 8)`` bytes are kept and the unused high bits
        of the final byte are zeroed, so two logically equal sequences
        are also byte-equal regardless of any trailing garbage in the
        source buffer.
        """
        if len(data) * 8 < count:
            raise ValueError(
                f"{count} bits need {(count + 7) // 8} bytes, got {len(data)}"
            )
        packed = cls()
        packed._data = bytearray(data[: (count + 7) // 8])
        packed._length = count
        if count & 7 and packed._data:
            packed._data[-1] &= (1 << (count & 7)) - 1
        return packed

    def packed(self) -> bytes:
        """The raw LSB-first packed bytes (``ceil(len / 8)`` of them)."""
        return bytes(self._data)

    def unpacked(self) -> bytearray:
        """One byte per bit (0 or 1), expanded afresh on every call."""
        return unpack_bits(self._data, self._length)

    def append(self, bit: int) -> None:
        index = self._length
        if index >> 3 == len(self._data):
            self._data.append(0)
        if bit:
            self._data[index >> 3] |= 1 << (index & 7)
        self._length = index + 1

    def extend(self, bits: Iterable[int]) -> None:
        for bit in bits:
            self.append(bit)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return iter(self.unpacked())

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step == 1 and start == 0:
                # The common prefix slice stays packed: byte copy + mask.
                return PackedDirections.from_packed(
                    self._data[: (stop + 7) // 8], stop
                )
            return PackedDirections(self.unpacked()[index])
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("direction index out of range")
        return (self._data[index >> 3] >> (index & 7)) & 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedDirections):
            return self._length == other._length and self._data == other._data
        if isinstance(other, (bytes, bytearray, list, tuple)):
            return len(other) == self._length and bytes(self.unpacked()) == bytes(
                bytearray(other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedDirections({list(self.unpacked())!r})"


class Trace:
    """An ordered sequence of branch events."""

    def __init__(self) -> None:
        self.sites: List[BranchSite] = []
        self._site_index: Dict[BranchSite, int] = {}
        self.site_ids = array("i")
        self.directions = PackedDirections()
        self._columns: Optional[TraceColumns] = None

    # -- recording -------------------------------------------------------------

    def site_id(self, site: BranchSite) -> int:
        """Intern *site*, returning its stable small-integer id."""
        index = self._site_index.get(site)
        if index is None:
            index = len(self.sites)
            self._site_index[site] = index
            self.sites.append(site)
        return index

    def record(self, site: BranchSite, taken: bool) -> None:
        """Append one event (the tracing callback)."""
        self.site_ids.append(self.site_id(site))
        self.directions.append(1 if taken else 0)

    def record_id(self, site_id: int, taken: bool) -> None:
        """Append one event for an already-interned site id."""
        self.site_ids.append(site_id)
        self.directions.append(1 if taken else 0)

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.site_ids)

    def events(self) -> Iterator[Tuple[int, int]]:
        """Iterate (site_id, direction) pairs; direction is 0 or 1."""
        return zip(self.site_ids, self.directions.unpacked())

    def __iter__(self) -> Iterator[Tuple[BranchSite, bool]]:
        sites = self.sites
        for sid, direction in self.events():
            yield sites[sid], bool(direction)

    def columns(self) -> TraceColumns:
        """The cached columnar view of this trace's current events.

        Rebuilt lazily whenever events were recorded since the last
        call, after the view budget dropped it (see :data:`VIEW_BYTES`),
        or when numpy was loaded or disabled since it was built; the view
        itself is immutable.
        """
        view = self._columns
        if view is None or view.n_events != len(self) or view.np is not loaded_numpy():
            view = TraceColumns(self.sites, self.site_ids, self.directions.packed())
        _keep_view(self, view)
        return view

    def taken_counts(self) -> Dict[BranchSite, Tuple[int, int]]:
        """Per-site (not_taken, taken) totals."""
        counts = [[0, 0] for _ in self.sites]
        for sid, direction in self.events():
            counts[sid][direction] += 1
        return {
            self.sites[i]: (c[0], c[1])
            for i, c in enumerate(counts)
            if c[0] or c[1]
        }

    def truncated(self, max_events: int) -> "Trace":
        """A copy limited to the first *max_events* events."""
        clone = Trace()
        clone.sites = list(self.sites)
        clone._site_index = dict(self._site_index)
        clone.site_ids = self.site_ids[:max_events]
        clone.directions = self.directions[: len(clone.site_ids)]
        return clone

    @classmethod
    def from_events(cls, events: Iterable[Tuple[BranchSite, bool]]) -> "Trace":
        """Build a trace from an iterable of (site, taken) pairs."""
        trace = cls()
        for site, taken in events:
            trace.record(site, taken)
        return trace
