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

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..ir import BranchSite
from .columns import TraceColumns, loaded_numpy
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


class ProfileData:
    """All pattern tables extracted from one training trace.

    Attributes
    ----------
    local:
        Per-site local-history table at depth ``local_bits``.
    global_tables:
        Per-site global-history table at depth ``global_bits``.
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
        self.global_tables: Dict[BranchSite, PatternTable] = {}
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
        """Every table of *trace*.

        Built from the trace's columnar view (:meth:`from_columns`) when
        numpy is already loaded, else by one pass over its events
        (:meth:`from_events`); both give equal tables in the same dict
        order.  numpy is never imported here: a service worker that has
        not loaded it keeps the pass and saves the import's memory.
        """
        if loaded_numpy() is not None:
            return cls.from_columns(trace.columns(), local_bits, global_bits)
        return cls.from_events(trace, local_bits, global_bits)

    @classmethod
    def from_events(
        cls,
        trace: Trace,
        local_bits: int = 9,
        global_bits: int = 8,
    ) -> "ProfileData":
        """Single pass over *trace* building every table (the reference
        :meth:`from_columns` must match).

        Histories start as all-zero (the convention hardware shift
        registers use), so early events are charged to the zero
        patterns rather than discarded.
        """
        data = cls(local_bits, global_bits)
        site_count = len(trace.sites)
        local_hist = [0] * site_count
        local_counts: List[Dict[int, List[int]]] = [dict() for _ in range(site_count)]
        global_counts: List[Dict[int, List[int]]] = [dict() for _ in range(site_count)]
        totals = [[0, 0] for _ in range(site_count)]
        local_mask = (1 << local_bits) - 1
        global_mask = (1 << global_bits) - 1
        ghist = 0
        for sid, taken in trace.events():
            lhist = local_hist[sid]
            entry = local_counts[sid].get(lhist)
            if entry is None:
                local_counts[sid][lhist] = entry = [0, 0]
            entry[taken] += 1
            entry = global_counts[sid].get(ghist)
            if entry is None:
                global_counts[sid][ghist] = entry = [0, 0]
            entry[taken] += 1
            totals[sid][taken] += 1
            local_hist[sid] = ((lhist << 1) | taken) & local_mask
            ghist = ((ghist << 1) | taken) & global_mask
            data.events += 1
        for index, site in enumerate(trace.sites):
            if totals[index][0] or totals[index][1]:
                data.local[site] = PatternTable(local_bits, local_counts[index])
                data.global_tables[site] = PatternTable(
                    global_bits, global_counts[index]
                )
                data.totals[site] = (totals[index][0], totals[index][1])
        return data

    @classmethod
    def from_columns(
        cls,
        columns: TraceColumns,
        local_bits: int = 9,
        global_bits: int = 8,
    ) -> "ProfileData":
        """Every table from a numpy :class:`TraceColumns` view.

        Each event's ``(site << bits) | register`` key, in
        :meth:`~TraceColumns.grouped` order, is counted with one
        ``unique`` and two ``bincount`` calls per table kind.  Grouped
        order is site-major and keeps trace order within a site, so
        sorting the keys by their first index yields each site's
        patterns in first-seen order — the dict order of
        :meth:`from_events`, which the ``KBP1`` bytes follow.
        """
        np = columns.np
        data = cls(local_bits, global_bits)
        data.events = columns.n_events
        sites = columns.sites
        executions = columns.site_executions()
        taken = columns.site_taken()
        executed = sorted(executions)
        for sid in executed:
            data.totals[sites[sid]] = (executions[sid] - taken[sid], taken[sid])
        _, sorted_ids, grouped_dirs, _ = columns.grouped()
        site_keys = sorted_ids.astype(np.int64)
        for kind, bits, tables in (
            ("local", local_bits, data.local),
            ("global-grouped", global_bits, data.global_tables),
        ):
            # The narrowest key dtype sorts fastest (radix up to 16 bits).
            keys = ((site_keys << bits) | columns.history(kind, bits)).astype(
                np.min_scalar_type(max(columns.n_sites, 1) << bits)
            )
            unique, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            order = np.argsort(first)
            unique = unique[order]
            seen = np.bincount(inverse)[order].tolist()
            hits = np.bincount(inverse, weights=grouped_dirs)[order]
            hits = hits.astype(np.int64).tolist()
            patterns = (unique & ((1 << bits) - 1)).tolist()
            bounds = np.searchsorted(unique >> bits, executed).tolist()
            bounds.append(len(patterns))
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
        return data

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
