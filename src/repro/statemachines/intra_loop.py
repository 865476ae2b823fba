"""Intra-loop branch state machines (Section 4.1).

For a branch inside a loop whose both successors stay in the loop, a
state represents "the last *n* branch directions of previous iterations
of the loop".  ``best_intra_machine`` performs the paper's exhaustive
search: every valid trie machine with at most ``max_states`` states is
scored against the branch's local pattern table and the one predicting
the most branches correctly wins (ties go to fewer states — less code
replication for the same accuracy).

``greedy_intra_machine`` is the ablation: grow the machine one state at
a time by always splitting the most profitable leaf.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import OBS
from ..profiling import PatternTable
from .machine import (
    MachineState,
    Pattern,
    PredictionMachine,
    ScoredMachine,
    pattern_str,
    single_state_machine,
)
from .scoring import NodeCounts, majority, node_counts, partition_score
from .trie import LEAF, Shape, TrieMachineShape, analyze_shape, valid_shapes


def machine_from_shape(
    info: TrieMachineShape,
    nodes: NodeCounts,
    kind: str = "intra-loop",
    default: Optional[bool] = None,
) -> PredictionMachine:
    """Instantiate a trie shape with predictions from *nodes*."""
    if default is None:
        default = majority(nodes.get((0, 0), (0, 0)))
    states = []
    for index, leaf in enumerate(info.leaves):
        counts = nodes.get(leaf, (0, 0))
        prediction = majority(counts, default)
        on_not_taken, on_taken = info.transitions[index]
        states.append(
            MachineState(
                pattern_str(leaf), prediction, on_not_taken, on_taken, leaf
            )
        )
    return PredictionMachine(tuple(states), info.initial, kind)


def best_intra_machine(
    table: PatternTable,
    max_states: int,
    nodes: Optional[NodeCounts] = None,
) -> ScoredMachine:
    """Exhaustive search for the best intra-loop machine.

    Considers the strongly connected machines with 1..max_states
    states, depth limited by the table's history length.  Returns the
    machine with the most correct predictions on the training profile;
    among equals, the one with fewer states.  *nodes* is ``node_counts(table)``, shared by a
    caller that searches the same table at several budgets.
    """
    if max_states < 1:
        raise ValueError("need at least one state")
    nodes = nodes if nodes is not None else node_counts(table)
    total = nodes.executions
    default = majority(nodes.get((0, 0), (0, 0)))
    best_machine = single_state_machine(default, "intra-loop")
    best_correct = nodes.correct.get((0, 0), 0)
    # Search telemetry is aggregated locally and reported once per call
    # — the inner loop enumerates thousands of shapes and must stay
    # free of per-candidate observer traffic.
    candidates = 0
    improvements = 0
    with OBS.span("sm.search.intra", max_states=max_states) as span:
        for n_states in range(2, max_states + 1):
            for info in valid_shapes(n_states, table.bits):
                candidates += 1
                correct = partition_score(nodes, info.leaves)
                if correct > best_correct:
                    improvements += 1
                    best_correct = correct
                    best_machine = machine_from_shape(
                        info, nodes, "intra-loop", default
                    )
        span.set(candidates=candidates, improvements=improvements)
    OBS.add("sm.intra.searches")
    OBS.add("sm.intra.candidates", candidates)
    OBS.add("sm.intra.pruned", candidates - improvements)
    OBS.add("sm.intra.improvements", improvements)
    if total:
        OBS.set_gauge("sm.intra.best_score", best_correct / total)
    return ScoredMachine(best_machine, best_correct, total)


def greedy_intra_machine(
    table: PatternTable, max_states: int
) -> ScoredMachine:
    """Greedy leaf-splitting search (the ablation baseline).

    Starts from the single-state machine and repeatedly splits the leaf
    whose split most increases correct predictions, until no split
    helps or the state budget is reached.  May miss machines the
    exhaustive search finds (splits are monotone refinements).
    """
    nodes = node_counts(table)
    default = majority(nodes.get((0, 0), (0, 0)))
    # The empty pattern: predict bias.  Splitting a leaf in place into
    # its 0- and 1-child keeps the list in trie DFS order.
    leaves: List[Pattern] = [(0, 0)]
    best: Optional[TrieMachineShape] = None
    while len(leaves) < max_states:
        best_gain = 0
        split = None
        current = partition_score(nodes, leaves)
        for index, (value, length) in enumerate(leaves):
            if length >= table.bits:
                continue
            candidate = leaves[:index] + [
                (value, length + 1),
                (value | (1 << length), length + 1),
            ] + leaves[index + 1 :]
            # Splits that leave some transition underdetermined (the
            # next state would depend on history the machine forgot)
            # are invalid, as in the exhaustive search.
            info = analyze_shape(_shape(candidate))
            if info is None:
                continue
            gain = partition_score(nodes, candidate) - current
            if gain > best_gain:
                best_gain = gain
                split = candidate, info
        if split is None:
            break
        leaves, best = split
    if best is None:
        machine = single_state_machine(default, "intra-loop")
    else:
        machine = machine_from_shape(best, nodes)
    return ScoredMachine(machine, partition_score(nodes, leaves), nodes.executions)


def _shape(leaves: List[Pattern]) -> Shape:
    """The trie shape whose leaves are *leaves* (a full trie)."""
    members = set(leaves)

    def build(value: int, depth: int) -> Shape:
        if (value, depth) in members:
            return LEAF
        return (build(value, depth + 1), build(value | (1 << depth), depth + 1))

    return build(0, 0)
