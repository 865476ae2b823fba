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
from .trie import TrieMachineShape, valid_shapes


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
    require_connected: bool = True,
    exact_states: bool = False,
    nodes: Optional[NodeCounts] = None,
) -> ScoredMachine:
    """Exhaustive search for the best intra-loop machine.

    Considers machines with 1..max_states states (or exactly
    *max_states* when *exact_states*), depth limited by the table's
    history length.  Returns the machine with the most correct
    predictions on the training profile; among equals, the one with
    fewer states.  *nodes* is ``node_counts(table)``, shared by a
    caller that searches the same table at several budgets.
    """
    if max_states < 1:
        raise ValueError("need at least one state")
    nodes = nodes if nodes is not None else node_counts(table)
    total = nodes.executions
    default = majority(nodes.get((0, 0), (0, 0)))
    best_machine = single_state_machine(default, "intra-loop")
    best_correct = nodes.correct.get((0, 0), 0)
    sizes = [max_states] if exact_states else range(2, max_states + 1)
    # Search telemetry is aggregated locally and reported once per call
    # — the inner loop enumerates thousands of shapes and must stay
    # free of per-candidate observer traffic.
    candidates = 0
    improvements = 0
    with OBS.span("sm.search.intra", max_states=max_states) as span:
        for n_states in sizes:
            if n_states == 1:
                continue
            for info in valid_shapes(n_states, table.bits, require_connected):
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
    total = nodes.executions
    leaves: List[Pattern] = [(0, 0)]  # the empty pattern: predict bias

    def score(current: List[Pattern]) -> int:
        return partition_score(nodes, current)

    while len(leaves) < max_states:
        best_gain = 0
        best_split: Optional[int] = None
        current = score(leaves)
        for index, (value, length) in enumerate(leaves):
            if length >= table.bits:
                continue
            split = [
                (value, length + 1),
                (value | (1 << length), length + 1),
            ]
            candidate = leaves[:index] + split + leaves[index + 1 :]
            # Splits that leave some transition underdetermined (the
            # next state would depend on history the machine forgot)
            # are invalid — the exhaustive search rejects the same
            # shapes via analyze_shape.
            if not _is_determined(candidate):
                continue
            gain = score(candidate) - current
            if gain > best_gain:
                best_gain = gain
                best_split = index
        if best_split is None:
            break
        value, length = leaves[best_split]
        leaves[best_split : best_split + 1] = [
            (value, length + 1),
            (value | (1 << length), length + 1),
        ]
    machine = _machine_from_partition(leaves, nodes, "intra-loop")
    return ScoredMachine(machine, score(leaves), total)


def _is_determined(leaves: List[Pattern]) -> bool:
    """True when every transition of the partition machine resolves
    using only the bits the source state knows."""
    members = set(leaves)

    def resolves(value: int, length: int) -> bool:
        for bits in range(length, -1, -1):
            if (value & ((1 << bits) - 1), bits) in members:
                return True
        return False

    for value, length in leaves:
        for bit in (0, 1):
            if not resolves((value << 1) | bit, length + 1):
                return False
    return True


def _machine_from_partition(
    leaves: List[Pattern], nodes: NodeCounts, kind: str
) -> PredictionMachine:
    """Build a machine from an arbitrary partition of histories.

    Transitions resolve to the longest leaf determined by the known
    bits; the partition produced by leaf splitting is always a full
    trie, so resolution is exact.
    """
    default = majority(nodes.get((0, 0), (0, 0)))
    if len(leaves) == 1:
        return single_state_machine(
            majority(nodes.get(leaves[0], (0, 0)), default), kind
        )
    index = {leaf: i for i, leaf in enumerate(leaves)}

    def resolve(value: int, length: int) -> int:
        # Longest leaf that matches the known bits.
        for bits in range(min(length, max(l for _, l in leaves)), -1, -1):
            key = (value & ((1 << bits) - 1), bits)
            if key in index:
                return index[key]
        raise AssertionError("partition must contain a matching leaf")

    states: List[MachineState] = []
    for value, length in leaves:
        succ = []
        for bit in (0, 1):
            succ.append(resolve((value << 1) | bit, length + 1))
        counts = nodes.get((value, length), (0, 0))
        states.append(
            MachineState(
                pattern_str((value, length)),
                majority(counts, default),
                succ[0],
                succ[1],
                (value, length),
            )
        )
    initial = resolve(0, max(l for _, l in leaves))
    return PredictionMachine(tuple(states), initial, kind)
