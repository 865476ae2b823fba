"""Pattern tables: per-branch history statistics (Section 3).

For every branch we record, per *history pattern*, how often the branch
was then taken and not taken.  Two history kinds exist:

* **local** (the paper's *loop branch strategy*): the pattern is the
  last *k* outcomes of the same branch;
* **global** (the *correlated branch strategy*): the pattern is the
  last *k* outcomes of all branches.

Patterns are integers; **bit 0 (LSB) is the most recent outcome**, so
the length-*m* suffix of a history is simply its low *m* bits — the
operation the state-machine search performs constantly.

Unlike a hardware predictor "we are not restricted by the size of the
history tables", so tables are unbounded dicts and there is one pattern
table per branch.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..ir import BranchSite
from ..obs import OBS
from .columns import DIRECTION, TraceColumns, loaded_numpy, low_bytes, unpack_bits
from .trace import Trace


@dataclass
class PatternTable:
    """Taken/not-taken counts per history pattern, at one history depth.

    ``counts[pattern] == [not_taken, taken]``.
    """

    bits: int
    counts: Dict[int, List[int]] = field(default_factory=dict)

    def add(self, pattern: int, taken: int) -> None:
        entry = self.counts.get(pattern)
        if entry is None:
            entry = [0, 0]
            self.counts[pattern] = entry
        entry[taken] += 1

    def total(self) -> Tuple[int, int]:
        """Aggregate (not_taken, taken) over all patterns."""
        not_taken = taken = 0
        for entry in self.counts.values():
            not_taken += entry[0]
            taken += entry[1]
        return not_taken, taken

    def executions(self) -> int:
        not_taken, taken = self.total()
        return not_taken + taken

    def correct_if_per_pattern(self) -> int:
        """Correct predictions if each pattern predicts its majority
        direction — the upper bound the state machines approximate."""
        return sum(max(entry) for entry in self.counts.values())

    def marginalize(self, bits: int) -> "PatternTable":
        """Collapse to a shorter history depth by summing over patterns
        with equal low *bits* bits ("this information is used to compute
        the number of taken and not taken branches for all shorter
        patterns")."""
        if bits > self.bits:
            raise ValueError(f"cannot widen table from {self.bits} to {bits} bits")
        if bits == self.bits:
            return PatternTable(bits, {p: list(c) for p, c in self.counts.items()})
        mask = (1 << bits) - 1
        out: Dict[int, List[int]] = {}
        for pattern, entry in self.counts.items():
            short = pattern & mask
            acc = out.get(short)
            if acc is None:
                out[short] = [entry[0], entry[1]]
            else:
                acc[0] += entry[0]
                acc[1] += entry[1]
        return PatternTable(bits, out)

    def fill(self) -> Tuple[int, int]:
        """(used entries, capacity 2**bits)."""
        return len(self.counts), 1 << self.bits


def is_count_pair(value: object) -> bool:
    """Whether *value* is a ``[not_taken, taken]`` list of two counts."""
    return (
        type(value) is list
        and len(value) == 2
        and all(type(count) is int and count >= 0 for count in value)
    )


def counts_to_json(counts: Dict[int, List[int]]) -> Dict[str, List[int]]:
    """A table's counts as a JSON object (keys are decimal strings)."""
    return {str(pattern): entry for pattern, entry in counts.items()}


def counts_from_json(blob: object, bits: int) -> Dict[int, List[int]]:
    """Inverse of :func:`counts_to_json` for a *bits*-deep table.

    Raises :class:`ValueError` unless every key is a canonical decimal
    pattern below ``2**bits`` and every value is a count pair.
    """
    if type(blob) is not dict:
        raise ValueError(f"pattern counts must be an object, not {blob!r:.40}")
    limit = 1 << bits
    counts: Dict[int, List[int]] = {}
    for key, entry in blob.items():
        pattern = int(key) if key.isdecimal() else -1
        if not (0 <= pattern < limit and str(pattern) == key):
            raise ValueError(f"pattern {key!r:.40} is not a {bits}-bit pattern")
        if not is_count_pair(entry):
            raise ValueError(f"pattern {key} counts {entry!r:.40} are not a pair")
        counts[pattern] = entry
    return counts


#: The unsigned ``array`` typecode of each lane width in bytes.
LANE_TYPES = {array(code).itemsize: code for code in "BHIQ"}

#: Sites per chunk of a trace whose event codes ``2 * site + direction``
#: do not fit a byte: 254 codes, plus 254 and 255 for other sites.
_CHUNK = 127


def _lanes(raw, size: int) -> Iterable[int]:
    """*raw* read as little-endian unsigned *size*-byte integers."""
    view = memoryview(raw).cast(LANE_TYPES[size])
    if size == 1 or sys.byteorder == "little":
        return view
    swapped = array(LANE_TYPES[size], view)
    swapped.byteswap()
    return swapped


def fold_keys(keys: Iterable[int], shift: int) -> Dict[int, Dict[int, List[int]]]:
    """``{code >> 1: {pattern: [not_taken, taken]}}`` from event keys
    ``(code << shift) | pattern``, where a code's low bit is its event's
    direction.  One ``Counter`` counts the keys in first-seen order, so
    the groups and each group's patterns come out in the order a
    per-event recorder inserts them."""
    mask = (1 << shift) - 1
    groups: Dict[int, Dict[int, List[int]]] = {}
    for key, count in Counter(keys).items():
        code = key >> shift
        counts = groups.get(code >> 1)
        if counts is None:
            counts = groups[code >> 1] = {}
        entry = counts.get(key & mask)
        if entry is None:
            entry = counts[key & mask] = [0, 0]
        entry[code & 1] += count
    return groups


def _history_keys(
    directions: bytes, bits: int, codes: Optional[bytes] = None
) -> Iterable[int]:
    """Per event of *directions* (one 0/1 byte each), the key
    ``(code << bits) | register``: *register* holds the *bits* outcomes
    before the event (newest in bit 0, zeros before the first) and
    *code* is the event's byte of *codes*, or its own direction.

    One big-int multiply builds every register.  With the directions in
    lanes of *w* bits, the multiplier's term ``1 << (w * j + j - 1)``
    adds direction *i* to lane ``i + j`` at bit ``j - 1``; every lane
    bit comes from one term, so no lane carries into the next.
    """
    size = next(s for s in (1, 2, 4, 8) if 8 * s >= bits + (1 if codes is None else 8))
    width = 8 * size
    multiplier = sum(1 << ((width + 1) * j - 1) for j in range(1, bits + 1))
    if codes is None:
        multiplier += 1 << bits
    count = len(directions)
    buffer = bytearray(count * size)
    buffer[::size] = directions
    keys = int.from_bytes(buffer, "little")
    if codes is None:
        del buffer
        keys *= multiplier
    else:
        keys *= multiplier
        buffer[::size] = codes
        codes = int.from_bytes(buffer, "little")
        del buffer
        keys += codes << bits
        del codes
    raw = keys.to_bytes((count + bits) * size, "little")
    del keys
    return _lanes(memoryview(raw)[: count * size], size)


def _site_codes(trace: Trace) -> Iterator[Tuple[int, int, bytes]]:
    """``(first, count, codes)`` per chunk of *trace*'s sites: per
    event, ``2 * (site id - first) + direction`` for the *count* sites
    from *first*, and 254 or 255 for other sites' events.  Up to 128
    sites are one chunk, coded from the low bytes of the site-id
    column; more are split into chunks of :data:`_CHUNK`."""
    n_sites, n_events = len(trace.sites), len(trace)
    taken = int.from_bytes(unpack_bits(trace.directions, n_events), "little")
    if n_sites <= 128:
        with memoryview(trace.site_ids) as view:
            codes = int.from_bytes(low_bytes(view), "little") << 1
        codes = (codes + taken).to_bytes(n_events, "little")
        del taken
        yield 0, n_sites, codes
        return
    for first in range(0, n_sites, _CHUNK):
        count = min(_CHUNK, n_sites - first)
        doubled = [254] * n_sites
        doubled[first : first + count] = range(0, 2 * count, 2)
        codes = int.from_bytes(bytes(map(doubled.__getitem__, trace.site_ids)), "little")
        codes = (codes + taken).to_bytes(n_events, "little")
        yield first, count, codes


def _bulk_local(
    trace: Trace, bits: int
) -> Tuple[Dict[BranchSite, Tuple[int, int]], Dict[BranchSite, PatternTable]]:
    """The totals and local tables of *trace* without numpy: per site,
    ``bytes.count`` of its two codes, then its direction subsequence
    (``bytes.translate`` deleting every other code) folded into keys."""
    totals: Dict[BranchSite, Tuple[int, int]] = {}
    tables: Dict[BranchSite, PatternTable] = {}
    for first, count, codes in _site_codes(trace):
        for index in range(count):
            code = 2 * index
            not_taken, taken = codes.count(code), codes.count(code + 1)
            if not_taken or taken:
                site = trace.sites[first + index]
                totals[site] = (not_taken, taken)
                own = codes.translate(
                    DIRECTION, bytes(range(code)) + bytes(range(code + 2, 256))
                )
                tables[site] = PatternTable(bits, fold_keys(_history_keys(own, bits), bits)[0])
    return totals, tables


def _bulk_global(trace: Trace, bits: int) -> Dict[BranchSite, PatternTable]:
    """The global tables of *trace* without numpy: every event's site
    code and global register as one key per event."""
    tables: Dict[BranchSite, PatternTable] = {}
    directions = unpack_bits(trace.directions, len(trace))
    for first, count, codes in _site_codes(trace):
        groups = fold_keys(_history_keys(directions, bits, codes), bits)
        for index in range(count):
            counts = groups.get(index)
            if counts is not None:
                tables[trace.sites[first + index]] = PatternTable(bits, counts)
    return tables


def _column_totals(columns: TraceColumns) -> Dict[BranchSite, Tuple[int, int]]:
    """Per executed site, in site-id order, ``(not_taken, taken)``."""
    executions = columns.site_executions()
    taken = columns.site_taken()
    return {
        columns.sites[sid]: (executions[sid] - taken[sid], taken[sid])
        for sid in sorted(executions)
    }


def _column_tables(
    columns: TraceColumns, kind: str, bits: int
) -> Dict[BranchSite, PatternTable]:
    """The tables of register *kind* (``"local"`` or
    ``"global-grouped"``) from a numpy :class:`TraceColumns` view.

    Each event's ``(site << bits) | register`` key, in
    :meth:`~TraceColumns.grouped` order, is counted with one ``unique``
    and two ``bincount`` calls.  Grouped order is site-major and keeps
    trace order within a site, so sorting the keys by their first index
    yields each site's patterns in first-seen order — a per-event
    recorder's dict order, which the ``KBP1`` bytes follow.
    """
    np = columns.np
    sites = columns.sites
    executed = sorted(columns.site_executions())
    _, sorted_ids, grouped_dirs, _ = columns.grouped()
    # The narrowest key dtype sorts fastest (radix up to 16 bits).
    keys = ((sorted_ids.astype(np.int64) << bits) | columns.history(kind, bits)).astype(
        np.min_scalar_type(max(columns.n_sites, 1) << bits)
    )
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    unique = unique[order]
    seen = np.bincount(inverse)[order].tolist()
    hits = np.bincount(inverse, weights=grouped_dirs)[order]
    hits = hits.astype(np.int64).tolist()
    patterns = (unique & ((1 << bits) - 1)).tolist()
    bounds = np.searchsorted(unique >> bits, executed).tolist()
    bounds.append(len(patterns))
    tables: Dict[BranchSite, PatternTable] = {}
    for index, sid in enumerate(executed):
        start, stop = bounds[index], bounds[index + 1]
        tables[sites[sid]] = PatternTable(
            bits,
            {
                pattern: [count - hit, hit]
                for pattern, count, hit in zip(
                    patterns[start:stop], seen[start:stop], hits[start:stop]
                )
            },
        )
    return tables


class ProfileData:
    """All pattern tables extracted from one training trace.

    Attributes
    ----------
    local:
        Per-site local-history table at depth ``local_bits``.
    global_tables:
        Per-site global-history table at depth ``global_bits``; a
        profile built from a trace builds these on first read.
    totals:
        Per-site (not_taken, taken) — the classic profile counts.
    events:
        Number of trace events consumed.
    path_tables:
        Per-site table keyed by frame-local path history (see
        :func:`repro.profiling.collect.instrumented_run`), from the run
        that recorded the trace; the only tables the planner trains
        correlated machines on.  They cannot be derived from the flat
        trace, so a profile built from a trace alone has none.
    """

    def __init__(self, local_bits: int = 9, global_bits: int = 8) -> None:
        if not (1 <= local_bits <= 24) or not (1 <= global_bits <= 24):
            raise ValueError("history depths must be in 1..24")
        self.local_bits = local_bits
        self.global_bits = global_bits
        self.local: Dict[BranchSite, PatternTable] = {}
        self._global_tables: Dict[BranchSite, PatternTable] = {}
        self._global_trace: Optional[Trace] = None
        self.totals: Dict[BranchSite, Tuple[int, int]] = {}
        self.events = 0
        self.path_tables: Dict[BranchSite, PatternTable] = {}

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        local_bits: int = 9,
        global_bits: int = 8,
    ) -> "ProfileData":
        """Every table of *trace*: the totals and local tables now, the
        global tables on the first read of :attr:`global_tables` (only
        the correlation predictors, Table 4 and the ``KBP1`` writer read
        them), so the profile keeps *trace*, which must not change, until
        then.

        Each table kind is built from the trace's columnar view
        (:func:`_column_tables`) when numpy is already loaded, else in
        bulk passes over its bytes (:func:`_bulk_local`,
        :func:`_bulk_global`); both give a per-event recorder's tables
        in its dict order.  numpy is never imported here: a service
        worker that has not loaded it keeps the bulk passes and saves
        the import's memory.
        """
        data = cls(local_bits, global_bits)
        data.events = len(trace)
        if loaded_numpy() is not None:
            columns = trace.columns()
            data.totals = _column_totals(columns)
            data.local = _column_tables(columns, "local", local_bits)
        else:
            data.totals, data.local = _bulk_local(trace, local_bits)
        data._global_trace = trace
        return data

    @property
    def global_tables(self) -> Dict[BranchSite, PatternTable]:
        trace = self._global_trace
        if trace is None:
            return self._global_tables
        # Racing readers may both build; their tables are equal.
        with OBS.span("profiling.build", tables="global", events=len(trace)):
            if loaded_numpy() is not None:
                tables = _column_tables(trace.columns(), "global-grouped", self.global_bits)
            else:
                tables = _bulk_global(trace, self.global_bits)
        self._global_tables, self._global_trace = tables, None
        return tables

    # -- queries ---------------------------------------------------------------

    def executions(self, site: BranchSite) -> int:
        not_taken, taken = self.totals.get(site, (0, 0))
        return not_taken + taken

    def bias(self, site: BranchSite) -> Optional[bool]:
        """Majority direction of *site* (None if never executed).

        Ties predict taken, matching the evaluation engine.
        """
        counts = self.totals.get(site)
        if counts is None:
            return None
        return counts[1] >= counts[0]

    def fill_rate(self, bits: int, sites: Optional[Iterable[BranchSite]] = None) -> float:
        """Table 2's metric: fraction of the 2**bits local pattern-table
        entries of the chosen branches that are actually used.

        *sites* may include branches that never executed (e.g. a caller
        passing ``program.branch_sites()``); those have no table and
        count as zero used entries.
        """
        chosen = list(sites) if sites is not None else list(self.local)
        if not chosen:
            return 0.0
        used = 0
        for site in chosen:
            table = self.local.get(site)
            if table is not None:
                used += len(table.marginalize(bits).counts)
        return used / (len(chosen) * (1 << bits))
