"""Branch traces.

A trace is the paper's instrumentation output: the ordered sequence of
(branch number, direction) events of one program run, together with the
table mapping branch numbers back to static branch sites.  As the
paper's tracer writes each run as one finished stream, a :class:`Trace`
is built whole, in one constructor call, and never changes afterwards:
every producer (the branch-log fold of an interpreter run, the ``KBT1``
decoder, a slice of another trace) hands it the complete columns.
Events are stored column-wise — an ``array`` of site indices plus the
direction bits **bit-packed** in plain ``bytes``, the same LSB-first
layout the ``KBT1`` trace file uses on disk — which keeps a
multi-million-event trace compact in memory (one bit per outcome,
exactly the on-disk cost before compression) and lets
:meth:`Trace.columns` hand the evaluation engine a zero-copy columnar
view of both streams.  ``trace[start:stop]`` (a training prefix, a
holdout suffix) is a new trace built the same way, without a per-event
Python loop.

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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..ir import BranchSite
from .columns import TraceColumns, loaded_numpy, low_bytes, pack_bits, unpack_bits


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


def _interned(codes, first: Dict[int, BranchSite]) -> Tuple[List[BranchSite], array]:
    """Intern the sites of a column of *codes* in first-event order.

    *first* maps each distinct code, in order of first occurrence, to
    its site (codes of one site share its id).  Returns the distinct
    sites and every event's site id.  The column is read by C-level
    passes only: an ``array("i")`` already numbered so is kept, other
    buffers of codes below 256 are ``bytes.translate``-d from their low
    bytes, and anything else is ``map``-ped.
    """
    index: Dict[BranchSite, int] = {}
    ids = {code: index.setdefault(site, len(index)) for code, site in first.items()}
    sites = list(index)
    if isinstance(codes, array) and codes.typecode == "i" and all(
        code == sid for code, sid in ids.items()
    ):
        return sites, codes
    if isinstance(codes, (bytearray, array)) and max(ids, default=0) < 256:
        column = array("i", [0]) * len(codes)
        table = bytes(ids.get(code, 0) for code in range(256))
        with memoryview(codes) as source, memoryview(column) as target:
            low_bytes(target)[:] = low_bytes(source).tobytes().translate(table)
        return sites, column
    return sites, array("i", map(ids.__getitem__, codes))


class Trace:
    """An ordered sequence of branch events, immutable once built.

    ``sites`` is the site table, ``site_ids`` every event's index into
    it (an ``array`` of C ints) and ``directions`` every event's
    outcome bit, packed LSB-first: event *i* is taken when
    ``directions[i >> 3] >> (i & 7) & 1``.  The constructor keeps
    ``ceil(n_events / 8)`` bytes of *directions* and zeroes the unused
    high bits of the last, so equal traces are byte-equal.
    """

    def __init__(
        self,
        sites: Sequence[BranchSite],
        site_ids: array,
        directions: bytes,
        n_events: int,
    ) -> None:
        width = (n_events + 7) // 8
        if len(site_ids) != n_events:
            raise ValueError(f"{n_events} events, {len(site_ids)} site ids")
        if len(directions) < width:
            raise ValueError(f"{n_events} bits need {width} bytes, got {len(directions)}")
        directions = bytes(directions[:width])
        if n_events & 7:
            last = directions[-1] & ((1 << (n_events & 7)) - 1)
            directions = directions[:-1] + bytes((last,))
        self.sites: List[BranchSite] = list(sites)
        self.site_ids = site_ids
        self.directions = directions
        self._columns: Optional[TraceColumns] = None

    @classmethod
    def from_events(cls, events: Iterable[Tuple[BranchSite, bool]]) -> "Trace":
        """Build a trace from an iterable of (site, taken) pairs, its
        sites interned in first-event order."""
        events = list(events)
        column = [site for site, _ in events]
        sites, site_ids = _interned(column, {site: site for site in dict.fromkeys(column)})
        bits = bytes(1 if taken else 0 for _, taken in events)
        return cls(sites, site_ids, pack_bits(bits), len(events))

    def __len__(self) -> int:
        return len(self.site_ids)

    def events(self) -> Iterator[Tuple[int, int]]:
        """Iterate (site_id, direction) pairs; direction is 0 or 1."""
        return zip(self.site_ids, unpack_bits(self.directions, len(self)))

    def __iter__(self) -> Iterator[Tuple[BranchSite, bool]]:
        sites = self.sites
        for sid, direction in self.events():
            yield sites[sid], bool(direction)

    def __getitem__(self, events: slice) -> "Trace":
        """The events ``trace[start:stop]`` as a trace of their own,
        its sites re-interned in first-event order.

        A prefix of a trace whose sites are in first-event order (every
        trace this package builds) numbers its sites as the parent
        does.  Built without a per-event Python loop: the site ids by
        :func:`_interned`, the directions by shifting the packed bytes
        as one integer.
        """
        if not isinstance(events, slice):
            raise TypeError("a trace is indexed by a slice of its events")
        start, stop, step = events.indices(len(self))
        if step != 1:
            raise ValueError("a trace slice takes every event")
        stop = max(start, stop)
        ids = self.site_ids[start:stop]
        first = {sid: self.sites[sid] for sid in dict.fromkeys(ids)}
        sites, site_ids = _interned(ids, first)
        taken = int.from_bytes(self.directions, "little") >> start
        directions = taken.to_bytes(len(self.directions), "little")
        return Trace(sites, site_ids, directions, stop - start)

    def columns(self) -> TraceColumns:
        """The cached columnar view of this trace.

        Rebuilt lazily after the view budget dropped it (see
        :data:`VIEW_BYTES`), or when numpy was loaded or disabled since
        it was built; the view itself is immutable.
        """
        view = self._columns
        if view is None or view.np is not loaded_numpy():
            view = TraceColumns(self.sites, self.site_ids, self.directions)
        _keep_view(self, view)
        return view
