"""Scoring state machines against pattern tables.

"For each 9 bit pattern we collected the number of taken and not taken
branches.  This information is used to compute the number of taken and
not taken branches for all shorter patterns.  Adding now the counts for
the more frequent direction of all states ... taking care that patterns
are counted not more than once, we get the number of correct predicted
branches for the state machine."  (Section 4.1)

:func:`node_counts` materialises the counts of *every* pattern length
at once; each full-depth pattern is then charged to exactly one state
(its unique trie leaf, or its longest matching path for correlated
machines).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

from ..profiling import PatternTable
from .machine import Pattern


class NodeCounts(dict):
    """``(not_taken, taken)`` per suffix pattern of one table, plus what
    every search over that table derives from it.

    ``correct[pattern]`` is the node's majority count (its correct
    predictions as a state); ``executions`` is the table's total.  Build
    it once per table with :func:`node_counts` and hand it to every
    search over the table through their ``nodes=`` parameter.
    """

    __slots__ = ("correct", "executions")

    def __init__(self) -> None:
        super().__init__()
        self.correct: Dict[Pattern, int] = {}
        self.executions = 0


def node_counts(table: PatternTable) -> NodeCounts:
    """Counts for all suffixes of all observed patterns.

    Key ``(value, length)`` with LSB = most recent outcome; value
    ``(not_taken, taken)``.  Includes the empty pattern ``(0, 0)``
    holding the branch totals.

    Folded one length at a time: a length's counts are the next
    length's with the top bit masked off.  Nodes are inserted ordered by
    (index of the first table entry they suffix, length), the order
    searches break ties in.
    """
    # value -> [not_taken, taken, first entry index]; each level's dict
    # is in first-index order, so a node's first child carries its index.
    level = {
        history: [entry[0], entry[1], index]
        for index, (history, entry) in enumerate(table.counts.items())
    }
    ranked: List[Tuple[int, int, int, int, int]] = []
    for length in range(table.bits, -1, -1):
        if length < table.bits:
            mask = (1 << length) - 1
            shorter: Dict[int, List[int]] = {}
            for value, cell in level.items():
                acc = shorter.get(value & mask)
                if acc is None:
                    shorter[value & mask] = cell[:]
                else:
                    acc[0] += cell[0]
                    acc[1] += cell[1]
            level = shorter
        ranked.extend(
            (first, length, value, not_taken, taken)
            for value, (not_taken, taken, first) in level.items()
        )
    ranked.sort()
    nodes = NodeCounts()
    correct = nodes.correct
    for _, length, value, not_taken, taken in ranked:
        key = (value, length)
        nodes[key] = (not_taken, taken)
        correct[key] = max(not_taken, taken)
    nodes.executions = sum(nodes.get((0, 0), (0, 0)))
    return nodes


def leaf_counts(
    nodes: NodeCounts, leaves: Iterable[Pattern]
) -> List[Tuple[int, int]]:
    """Counts charged to each leaf of a partition machine."""
    return [nodes.get(leaf, (0, 0)) for leaf in leaves]


def partition_score(nodes: NodeCounts, leaves: Iterable[Pattern]) -> int:
    """Correct predictions when each leaf predicts its majority (a leaf
    the table never reached scores 0)."""
    return sum(map(nodes.correct.get, leaves, repeat(0)))


def longest_match_groups(
    table: PatternTable, patterns: List[Pattern]
) -> Tuple[List[List[int]], List[int]]:
    """Charge each full-depth table entry to its *longest* matching
    pattern (correlated-machine semantics).

    Returns ``(per_pattern_counts, fallback_counts)`` where each counts
    cell is ``[not_taken, taken]``; entries matching no pattern land in
    the fallback (catch-all) cell.
    """
    ordered = sorted(range(len(patterns)), key=lambda i: -patterns[i][1])
    groups: List[List[int]] = [[0, 0] for _ in patterns]
    fallback = [0, 0]
    for history, entry in table.counts.items():
        target: Optional[int] = None
        for index in ordered:
            value, length = patterns[index]
            if (history & ((1 << length) - 1)) == value:
                target = index
                break
        cell = groups[target] if target is not None else fallback
        cell[0] += entry[0]
        cell[1] += entry[1]
    return groups, fallback


def majority(counts: Tuple[int, int], default: bool = True) -> bool:
    """Majority direction of a (not_taken, taken) cell."""
    not_taken, taken = counts
    if taken == not_taken:
        return default
    return taken > not_taken
