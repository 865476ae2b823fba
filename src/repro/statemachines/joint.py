"""Joint machines: one state machine for all branches of a loop.

Section 6 ("Further Work"): "A possible solution treats all branches of
that loop at the same time and constructs a single state machine for
all branches using a higher number of states."

A joint machine's history is the interleaved outcome sequence of *all*
member branches of the loop; every member execution both consults and
advances the state.  Because the same trie-shape enumeration as the
intra-loop search applies — only the scoring sums over members — the
search stays exhaustive over the (small) valid-shape family rather than
needing the paper's branch-and-bound.

The payoff: improving two branches with independent 4- and 2-state
machines replicates the loop 4 x 2 = 8 times, while one 8-state joint
machine reaches a similar accuracy at the same size — or the same
accuracy at fewer states — whenever the branches' histories overlap in
information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ir import BranchSite
from ..profiling import PatternTable
from .machine import Pattern, pattern_str
from .scoring import NodeCounts, majority, node_counts, partition_score
from .trie import TrieMachineShape, valid_shapes


@dataclass(frozen=True)
class JointState:
    """One joint state: transitions plus one prediction per member."""

    name: str
    predictions: Tuple[Tuple[BranchSite, bool], ...]
    on_not_taken: int
    on_taken: int
    pattern: Optional[Pattern] = None

    def prediction_for(self, site: BranchSite) -> bool:
        for candidate, prediction in self.predictions:
            if candidate == site:
                return prediction
        raise KeyError(site)


@dataclass(frozen=True)
class JointLoopMachine:
    """A shared machine over a loop's member branches."""

    sites: Tuple[BranchSite, ...]
    states: Tuple[JointState, ...]
    initial: int
    kind: str = "joint-loop"

    @property
    def n_states(self) -> int:
        return len(self.states)

    def next_state(self, state: int, taken: bool) -> int:
        s = self.states[state]
        return s.on_taken if taken else s.on_not_taken

    def simulate(
        self, events: Iterable[Tuple[BranchSite, bool]]
    ) -> Tuple[int, int]:
        """Run over an interleaved (site, outcome) stream of members."""
        current = self.initial
        correct = 0
        total = 0
        for site, taken in events:
            state = self.states[current]
            if state.prediction_for(site) is bool(taken):
                correct += 1
            total += 1
            current = state.on_taken if taken else state.on_not_taken
        return correct, total

    def describe(self) -> str:
        lines = [
            f"joint machine over {len(self.sites)} branches, "
            f"{self.n_states} states"
        ]
        for index, state in enumerate(self.states):
            marker = "*" if index == self.initial else " "
            predictions = ", ".join(
                f"{site.block}:{'T' if p else 'N'}"
                for site, p in state.predictions
            )
            lines.append(
                f" {marker} [{state.name}] {predictions}; "
                f"0 -> {self.states[state.on_not_taken].name}, "
                f"1 -> {self.states[state.on_taken].name}"
            )
        return "\n".join(lines)


@dataclass
class ScoredJointMachine:
    """A joint machine plus its training score."""

    machine: JointLoopMachine
    correct: int
    total: int
    #: per-member (correct, total) split
    per_site: Dict[BranchSite, Tuple[int, int]]

    @property
    def mispredictions(self) -> int:
        return self.total - self.correct

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.total if self.total else 0.0


def best_joint_machine(
    tables: Mapping[BranchSite, PatternTable],
    max_states: int,
) -> ScoredJointMachine:
    """Exhaustive search for the best shared machine.

    *tables* map each member branch to its pattern table keyed by the
    **joint** (loop-local, interleaved) history.  The search enumerates
    the same valid trie shapes as the intra-loop search; a shape's
    score is the sum of every member's partition score on it.
    """
    if not tables:
        raise ValueError("need at least one member branch")
    sites = tuple(sorted(tables))
    bits = min(table.bits for table in tables.values())
    nodes: Dict[BranchSite, NodeCounts] = {
        site: node_counts(tables[site]) for site in sites
    }
    defaults: Dict[BranchSite, bool] = {
        site: majority(nodes[site].get((0, 0), (0, 0))) for site in sites
    }
    total = sum(tables[site].executions() for site in sites)

    def shape_score(info: TrieMachineShape) -> int:
        return sum(partition_score(nodes[site], info.leaves) for site in sites)

    best_info: Optional[TrieMachineShape] = None
    best_correct = sum(
        max(nodes[site].get((0, 0), (0, 0))) for site in sites
    )
    for n_states in range(2, max_states + 1):
        for info in valid_shapes(n_states, bits):
            correct = shape_score(info)
            if correct > best_correct:
                best_correct = correct
                best_info = info

    if best_info is None:
        machine = _single_state_joint(sites, defaults)
        per_site = {
            site: (max(nodes[site].get((0, 0), (0, 0))), tables[site].executions())
            for site in sites
        }
        return ScoredJointMachine(machine, best_correct, total, per_site)

    states: List[JointState] = []
    for index, leaf in enumerate(best_info.leaves):
        predictions = tuple(
            (site, majority(nodes[site].get(leaf, (0, 0)), defaults[site]))
            for site in sites
        )
        on_not_taken, on_taken = best_info.transitions[index]
        states.append(
            JointState(pattern_str(leaf), predictions, on_not_taken, on_taken, leaf)
        )
    machine = JointLoopMachine(sites, tuple(states), best_info.initial)
    per_site = {
        site: (
            partition_score(nodes[site], best_info.leaves),
            tables[site].executions(),
        )
        for site in sites
    }
    return ScoredJointMachine(machine, best_correct, total, per_site)


def _single_state_joint(
    sites: Sequence[BranchSite], defaults: Mapping[BranchSite, bool]
) -> JointLoopMachine:
    predictions = tuple((site, defaults[site]) for site in sites)
    state = JointState("*", predictions, 0, 0, None)
    return JointLoopMachine(tuple(sites), (state,), 0)
