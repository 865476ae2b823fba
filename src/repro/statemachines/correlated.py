"""Correlated branch state machines (Section 4.3).

"A state in a correlated branch state machine represents a path from
correlated branches to the branch to be predicted.  The correlated
branch state machine is the set of those paths which give the lowest
misprediction rate.  One state covers the case where the control flow
matches none of the paths."

States are therefore *independent* — there are no transitions between
them; which state applies is decided by the path control flow took,
i.e. by the most recent global branch outcomes.  An execution is
charged to the longest chosen path matching its global history, or to
the catch-all.

``best_correlated_machine`` selects the path set greedily by exact
marginal gain.  Each table entry is tracked with the path that owns it,
so a candidate's gain is computed from the entries it would take over;
nested paths and majority flips in the losing groups are handled
exactly, as a full recount (:func:`_score_paths`) would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import OBS
from ..profiling import PatternTable
from .machine import Pattern, ScoredMachine, pattern_str
from .scoring import NodeCounts, longest_match_groups, majority, node_counts


@dataclass(frozen=True)
class CorrelatedMachine:
    """Independent path states plus a catch-all."""

    paths: Tuple[Pattern, ...]
    predictions: Tuple[bool, ...]
    fallback: bool
    kind: str = "correlated"

    @property
    def n_states(self) -> int:
        return len(self.paths) + 1

    def state_of(self, history: int) -> Optional[int]:
        """Index of the longest path matching *history* (None = catch-all)."""
        best: Optional[int] = None
        best_length = -1
        for index, (value, length) in enumerate(self.paths):
            if length > best_length and (history & ((1 << length) - 1)) == value:
                best = index
                best_length = length
        return best

    def predict(self, history: int) -> bool:
        state = self.state_of(history)
        if state is None:
            return self.fallback
        return self.predictions[state]

    def describe(self) -> str:
        lines = [f"correlated machine, {self.n_states} states"]
        for (pattern, prediction) in zip(self.paths, self.predictions):
            lines.append(
                f"   [{pattern_str(pattern)}] predict "
                f"{'taken' if prediction else 'not-taken'}"
            )
        lines.append(
            f"   [*] predict {'taken' if self.fallback else 'not-taken'}"
        )
        return "\n".join(lines)


def _score_paths(
    table: PatternTable, paths: List[Pattern], default: bool
) -> Tuple[int, List[bool], bool]:
    """Correct count + per-path and fallback majority predictions."""
    groups, fallback_counts = longest_match_groups(table, paths)
    correct = sum(max(cell) for cell in groups) + max(fallback_counts)
    predictions = [majority((cell[0], cell[1]), default) for cell in groups]
    fallback = majority((fallback_counts[0], fallback_counts[1]), default)
    return correct, predictions, fallback


class _GreedyPaths:
    """A growing path set and the entries each path owns.

    Every full-depth table entry belongs to its longest matching chosen
    path, or to the catch-all (cell 0).  A candidate path's gain is then
    exact from just the entries it would take over: what their owners
    lose plus the majority of what the new path collects.
    """

    def __init__(self, table: PatternTable, candidates: List[Pattern]) -> None:
        self.entries = list(table.counts.values())
        self.paths: List[Pattern] = []
        self.cells = [list(table.total())]
        self.owner = [0] * len(self.entries)
        self.owner_length = [0] * len(self.entries)
        self.matches: Dict[Pattern, List[int]] = {p: [] for p in candidates}
        longest = max((length for _, length in candidates), default=0)
        for index, history in enumerate(table.counts):
            for length in range(1, longest + 1):
                bucket = self.matches.get((history & ((1 << length) - 1), length))
                if bucket is not None:
                    bucket.append(index)

    def _taken_over(self, pattern: Pattern) -> List[int]:
        """Entries *pattern* would own: matched, and by no longer path."""
        length = pattern[1]
        return [i for i in self.matches[pattern] if self.owner_length[i] < length]

    def gain(self, pattern: Pattern) -> int:
        """Exact change in correct predictions from adding *pattern*."""
        lost: Dict[int, List[int]] = {}
        for index in self._taken_over(pattern):
            entry = self.entries[index]
            cell = lost.setdefault(self.owner[index], [0, 0])
            cell[0] += entry[0]
            cell[1] += entry[1]
        gain = not_taken = taken = 0
        for owner, (lost_not_taken, lost_taken) in lost.items():
            cell = self.cells[owner]
            gain += max(cell[0] - lost_not_taken, cell[1] - lost_taken) - max(cell)
            not_taken += lost_not_taken
            taken += lost_taken
        return gain + max(not_taken, taken)

    def add(self, pattern: Pattern) -> None:
        new = [0, 0]
        for index in self._taken_over(pattern):
            entry = self.entries[index]
            cell = self.cells[self.owner[index]]
            cell[0] -= entry[0]
            cell[1] -= entry[1]
            new[0] += entry[0]
            new[1] += entry[1]
            self.owner[index] = len(self.cells)
            self.owner_length[index] = pattern[1]
        self.paths.append(pattern)
        self.cells.append(new)


def best_correlated_machine(
    table: PatternTable,
    max_states: int,
    max_path_length: Optional[int] = None,
    max_candidates: int = 64,
    nodes: Optional[NodeCounts] = None,
) -> ScoredMachine:
    """Greedy exact-gain selection of at most ``max_states - 1`` paths.

    *table* is the branch's **global**-history pattern table.  Paths
    longer than ``max_path_length`` (default: ``max_states - 1``, the
    paper's "maximum path length of n for an n state machine" bound to
    keep the replicated code small) are not considered.  Candidates are
    the ``max_candidates`` most frequent observed patterns.  *nodes* is
    ``node_counts(table)`` when the caller already has it.
    """
    if max_states < 1:
        raise ValueError("need at least one state")
    nodes = nodes if nodes is not None else node_counts(table)
    total = nodes.executions
    default = majority(nodes.get((0, 0), (0, 0)))
    limit = max_path_length if max_path_length is not None else max(1, max_states - 1)
    limit = min(limit, table.bits)
    candidates = [
        (pattern, counts)
        for pattern, counts in nodes.items()
        if 1 <= pattern[1] <= limit
    ]
    candidates.sort(key=lambda item: -(item[1][0] + item[1][1]))
    candidates = [pattern for pattern, _ in candidates[:max_candidates]]

    greedy = _GreedyPaths(table, candidates)
    chosen = greedy.paths
    rounds = 0
    scored = 0
    with OBS.span("sm.search.correlated", max_states=max_states) as span:
        while len(chosen) < max_states - 1:
            rounds += 1
            best_gain = 0
            best_pattern: Optional[Pattern] = None
            for pattern in candidates:
                if pattern in chosen:
                    continue
                scored += 1
                gain = greedy.gain(pattern)
                if gain > best_gain:
                    best_gain = gain
                    best_pattern = pattern
            if best_pattern is None:
                break
            greedy.add(best_pattern)
        span.set(candidates=scored, rounds=rounds, paths=len(chosen))
    best_correct, predictions, fallback = _score_paths(table, chosen, default)
    OBS.add("sm.correlated.searches")
    OBS.add("sm.correlated.candidates", scored)
    OBS.add("sm.correlated.rounds", rounds)
    OBS.add("sm.correlated.paths", len(chosen))
    if total:
        OBS.set_gauge("sm.correlated.best_score", best_correct / total)
    machine = CorrelatedMachine(tuple(chosen), tuple(predictions), fallback)
    return ScoredMachine(machine, best_correct, total)


def correlated_machine_options(
    table: PatternTable,
    max_states: int,
    max_candidates: int = 64,
) -> List[ScoredMachine]:
    """One scored machine per state count 1..max_states.

    Runs the greedy selection once at the largest budget and derives
    the smaller machines from prefixes of the chosen path sequence,
    dropping paths longer than each size's ``n - 1`` length bound and
    rescoring exactly.  Returned machines are indexed so that
    ``options[n - 1]`` has at most *n* states.
    """
    nodes = node_counts(table)
    total = nodes.executions
    default = majority(nodes.get((0, 0), (0, 0)))
    full = best_correlated_machine(
        table,
        max_states,
        max_path_length=table.bits,
        max_candidates=max_candidates,
        nodes=nodes,
    )
    sequence: Tuple[Pattern, ...] = full.machine.paths
    options: List[ScoredMachine] = []
    for n_states in range(1, max_states + 1):
        limit = n_states - 1
        chosen = [p for p in sequence if p[1] <= limit][:limit]
        correct, predictions, fallback = _score_paths(table, chosen, default)
        machine = CorrelatedMachine(tuple(chosen), tuple(predictions), fallback)
        options.append(ScoredMachine(machine, correct, total))
    return options
