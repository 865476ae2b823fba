"""Loop-exit branch state machines (Section 4.2).

A loop-exit branch leaves the loop on one of its directions.  Its
machines are chains: the initial state represents "the loop exited on
the last execution", the following states count iterations since then,
and the deepest state is a catch-all.  Figure 5's variant additionally
lets the two deepest states alternate, capturing loops with a strong
even/odd iteration-count bias.

Both variants are built here and ``best_loop_exit_machine`` picks the
better one per branch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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


def _stays(count: int, stay_bit: int) -> Pattern:
    """*count* stay outcomes in a row — newest outcome in bit 0."""
    return ((1 << count) - 1 if stay_bit else 0, count)


def _since_exit(stays: int, stay_bit: int) -> Pattern:
    """An exit followed by *stays* stay outcomes."""
    value, length = _stays(stays, stay_bit)
    return (value | ((1 - stay_bit) << length), length + 1)


def _comb_patterns(n_states: int, stay_bit: int) -> List[Pattern]:
    """Patterns of the saturating chain: [exit], [stay,exit], ...,
    [stay^(n-1)] — in taken-bit terms, newest outcome in bit 0."""
    patterns = [_since_exit(i, stay_bit) for i in range(n_states - 1)]
    patterns.append(_stays(n_states - 1, stay_bit))
    return patterns


def _parity_cells(
    nodes: NodeCounts, bits: int, n_states: int, stay_bit: int
) -> Tuple[List[Pattern], List[List[int]]]:
    """The parity machine's chain patterns, and its two parity cells
    (index = parity of the stay count beyond the chain)."""
    depth = n_states - 2  # chain states 0..depth-1, then parity pair
    chain = [_since_exit(i, stay_bit) for i in range(depth)]
    # Deep patterns [stay^k, exit] with k >= depth split by parity of k.
    parity_counts = [[0, 0], [0, 0]]
    deep = [(k % 2, _since_exit(k, stay_bit)) for k in range(depth, bits)]
    # The all-stay pattern cannot reveal its exit distance; charge it to
    # the parity of the full history depth (documented approximation).
    deep.append((bits % 2, _stays(bits, stay_bit)))
    for parity, pattern in deep:
        counts = nodes.get(pattern, (0, 0))
        parity_counts[parity][0] += counts[0]
        parity_counts[parity][1] += counts[1]
    return chain, parity_counts


def comb_machine(
    table: PatternTable,
    n_states: int,
    exit_on_taken: bool,
    nodes: Optional[NodeCounts] = None,
) -> ScoredMachine:
    """The saturating loop-exit chain with *n_states* states."""
    if n_states < 1:
        raise ValueError("need at least one state")
    if n_states - 1 > table.bits:
        raise ValueError("chain deeper than the recorded history")
    nodes = nodes if nodes is not None else node_counts(table)
    total = nodes.executions
    default = majority(nodes.get((0, 0), (0, 0)))
    if n_states == 1:
        return ScoredMachine(
            single_state_machine(default, "loop-exit"),
            nodes.correct.get((0, 0), 0),
            total,
        )
    stay_bit = 0 if exit_on_taken else 1
    patterns = _comb_patterns(n_states, stay_bit)
    states: List[MachineState] = []
    last = n_states - 1
    for index, pattern in enumerate(patterns):
        counts = nodes.get(pattern, (0, 0))
        on_stay, on_exit = (min(index + 1, last), 0)
        on_not_taken = on_stay if exit_on_taken else on_exit
        on_taken = on_exit if exit_on_taken else on_stay
        states.append(
            MachineState(
                pattern_str(pattern),
                majority(counts, default),
                on_not_taken,
                on_taken,
                pattern,
            )
        )
    machine = PredictionMachine(tuple(states), 0, "loop-exit")
    return ScoredMachine(machine, partition_score(nodes, patterns), total)


def parity_machine(
    table: PatternTable,
    n_states: int,
    exit_on_taken: bool,
    nodes: Optional[NodeCounts] = None,
) -> ScoredMachine:
    """Figure 5's variant: the two deepest states alternate, tracking
    the parity of the iteration count beyond the chain."""
    if n_states < 3:
        raise ValueError("parity machine needs at least 3 states")
    nodes = nodes if nodes is not None else node_counts(table)
    total = nodes.executions
    default = majority(nodes.get((0, 0), (0, 0)))
    stay_bit = 0 if exit_on_taken else 1
    depth = n_states - 2
    chain_patterns, parity_counts = _parity_cells(
        nodes, table.bits, n_states, stay_bit
    )
    chain_counts = [nodes.get(p, (0, 0)) for p in chain_patterns]

    states: List[MachineState] = []
    for i, pattern in enumerate(chain_patterns):
        # Chain state i has seen i stays; one more stay gives i+1.
        next_k = i + 1
        if next_k < depth:
            on_stay = next_k
        else:
            on_stay = depth + (next_k % 2 != depth % 2)
        states.append(
            MachineState(
                pattern_str(pattern),
                majority(chain_counts[i], default),
                0 if not exit_on_taken else on_stay,
                on_stay if not exit_on_taken else 0,
                pattern,
            )
        )
    # Parity states: index depth = parity (depth % 2), depth+1 = other.
    for offset in (0, 1):
        parity = (depth + offset) % 2
        counts_cell = (
            parity_counts[parity][0],
            parity_counts[parity][1],
        )
        other = depth + (1 - offset)
        name = f"{'1' if stay_bit else '0'}^{'even' if parity == 0 else 'odd'}"
        states.append(
            MachineState(
                name,
                majority(counts_cell, default),
                0 if not exit_on_taken else other,
                other if not exit_on_taken else 0,
                None,
            )
        )
    machine = PredictionMachine(tuple(states), 0, "loop-exit-parity")
    correct = _parity_score(nodes, chain_patterns, parity_counts)
    return ScoredMachine(machine, correct, total)


def _parity_score(
    nodes: NodeCounts, chain: List[Pattern], parity_counts: List[List[int]]
) -> int:
    """Correct predictions of a parity machine: its chain and parity
    states partition all histories."""
    return partition_score(nodes, chain) + max(parity_counts[0]) + max(parity_counts[1])


def best_loop_exit_machine(
    table: PatternTable,
    max_states: int,
    exit_on_taken: bool,
    nodes: Optional[NodeCounts] = None,
) -> ScoredMachine:
    """Best chain or parity machine with at most *max_states* states.

    *nodes* is ``node_counts(table)``, shared by a caller that searches
    the same table at several budgets.
    """
    if max_states < 1:
        raise ValueError("need at least one state")
    nodes = nodes if nodes is not None else node_counts(table)
    stay_bit = 0 if exit_on_taken else 1
    # Score every candidate first; only the winner is built.
    best_correct = -1
    winner = (comb_machine, 1)
    considered = 0
    improvements = 0
    with OBS.span("sm.search.loop_exit", max_states=max_states) as span:
        for n_states in range(1, min(max_states, table.bits + 1) + 1):
            comb = _comb_patterns(n_states, stay_bit)
            candidates = [(comb_machine, partition_score(nodes, comb))]
            if n_states >= 3:
                cells = _parity_cells(nodes, table.bits, n_states, stay_bit)
                candidates.append((parity_machine, _parity_score(nodes, *cells)))
            for build, correct in candidates:
                considered += 1
                if correct > best_correct:
                    improvements += 1
                    best_correct = correct
                    winner = (build, n_states)
        span.set(candidates=considered, improvements=improvements)
    build, n_states = winner
    best = build(table, n_states, exit_on_taken, nodes)
    OBS.add("sm.loop_exit.searches")
    OBS.add("sm.loop_exit.candidates", considered)
    OBS.add("sm.loop_exit.pruned", considered - improvements)
    OBS.add("sm.loop_exit.improvements", improvements)
    if best.total:
        OBS.set_gauge("sm.loop_exit.best_score", best.correct / best.total)
    return best
