"""Intra-loop machine search tests, including score/simulation agreement."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.profiling import PatternTable
from repro.statemachines import (
    best_intra_machine,
    greedy_intra_machine,
    node_counts,
)
from repro.statemachines.intra_loop import _shape, machine_from_shape
from repro.statemachines.machine import (
    MachineState,
    PredictionMachine,
    pattern_str,
    single_state_machine,
)
from repro.statemachines.scoring import majority, partition_score
from repro.statemachines.trie import analyze_shape


def table_from_outcomes(outcomes, bits: int = 9) -> PatternTable:
    table = PatternTable(bits)
    history = 0
    mask = (1 << bits) - 1
    for taken in outcomes:
        table.add(history, 1 if taken else 0)
        history = ((history << 1) | (1 if taken else 0)) & mask
    return table


class TestBestIntraMachine:
    def test_alternating_two_states_suffice(self):
        outcomes = [i % 2 == 0 for i in range(500)]
        scored = best_intra_machine(table_from_outcomes(outcomes), 2)
        assert scored.machine.n_states == 2
        assert scored.misprediction_rate < 0.01

    def test_period_three_needs_more_states(self):
        outcomes = [(i % 3) != 2 for i in range(600)]  # T T N repeating
        two = best_intra_machine(table_from_outcomes(outcomes), 2)
        four = best_intra_machine(table_from_outcomes(outcomes), 4)
        assert four.correct > two.correct
        assert four.misprediction_rate < 0.01

    def test_biased_branch_stays_single_state(self):
        outcomes = [True] * 500
        scored = best_intra_machine(table_from_outcomes(outcomes), 8)
        assert scored.machine.n_states == 1
        assert scored.mispredictions == 0

    def test_score_matches_simulation(self):
        # The pattern-table score must equal an actual simulation run
        # (up to warmup effects smaller than the history depth).
        outcomes = [(i % 4) in (0, 1) for i in range(800)]
        table = table_from_outcomes(outcomes)
        scored = best_intra_machine(table, 4)
        simulated_correct, total = scored.machine.simulate(outcomes)
        assert total == scored.total
        assert abs(simulated_correct - scored.correct) <= table.bits

    def test_ties_prefer_fewer_states(self):
        outcomes = [i % 2 == 0 for i in range(400)]
        scored = best_intra_machine(table_from_outcomes(outcomes), 8)
        assert scored.machine.n_states <= 4

    def test_random_never_improves(self):
        import random

        rng = random.Random(11)
        outcomes = [rng.random() < 0.5 for _ in range(500)]
        table = table_from_outcomes(outcomes)
        scored = best_intra_machine(table, 4)
        profile_correct = max(table.total())
        # Machines may overfit the table slightly but the structure is
        # noise: the gain should be small.
        assert scored.correct - profile_correct < 80


class TestGreedyVsExhaustive:
    def test_greedy_never_beats_exhaustive(self):
        for period in (2, 3, 4, 5):
            outcomes = [(i % period) != 0 for i in range(600)]
            table = table_from_outcomes(outcomes)
            for states in (2, 4, 6):
                exhaustive = best_intra_machine(table, states)
                greedy = greedy_intra_machine(table, states)
                assert greedy.correct <= exhaustive.correct

    def test_greedy_finds_alternation(self):
        outcomes = [i % 2 == 0 for i in range(400)]
        scored = greedy_intra_machine(table_from_outcomes(outcomes), 2)
        assert scored.misprediction_rate < 0.01

    def test_greedy_machine_simulates_consistently(self):
        outcomes = [(i % 3) != 2 for i in range(600)]
        table = table_from_outcomes(outcomes)
        scored = greedy_intra_machine(table, 4)
        correct, total = scored.machine.simulate(outcomes)
        assert abs(correct - scored.correct) <= table.bits


class TestMachineStructure:
    def test_transitions_follow_history_semantics(self):
        outcomes = [(i % 4) in (0, 1) for i in range(400)]
        scored = best_intra_machine(table_from_outcomes(outcomes), 4)
        machine = scored.machine
        for state in machine.states:
            for bit, succ_index in ((0, state.on_not_taken), (1, state.on_taken)):
                succ = machine.states[succ_index]
                # The successor's pattern must be consistent with
                # "outcome bit then this state's bits".
                value, length = state.pattern
                extended = ((value << 1) | bit, length + 1)
                svalue, slength = succ.pattern
                assert slength <= length + 1
                assert (extended[0] & ((1 << slength) - 1)) == svalue


# -- the greedy search's shapes against the partition builder it replaced ----


def reference_is_determined(leaves):
    """Every transition of the partition machine resolves using only
    the bits the source state knows."""
    members = set(leaves)

    def resolves(value, length):
        return any(
            (value & ((1 << bits) - 1), bits) in members for bits in range(length, -1, -1)
        )

    return all(
        resolves((value << 1) | bit, length + 1) for value, length in leaves for bit in (0, 1)
    )


def reference_machine(leaves, nodes, kind="intra-loop"):
    """A machine over a partition of histories: each transition goes to
    the longest leaf the known bits match."""
    default = majority(nodes.get((0, 0), (0, 0)))
    if len(leaves) == 1:
        return single_state_machine(majority(nodes.get(leaves[0], (0, 0)), default), kind)
    index = {leaf: i for i, leaf in enumerate(leaves)}
    deepest = max(length for _, length in leaves)

    def resolve(value, length):
        for bits in range(min(length, deepest), -1, -1):
            key = (value & ((1 << bits) - 1), bits)
            if key in index:
                return index[key]
        raise AssertionError("partition must contain a matching leaf")

    states = [
        MachineState(
            pattern_str(leaf),
            majority(nodes.get(leaf, (0, 0)), default),
            resolve(leaf[0] << 1, leaf[1] + 1),
            resolve((leaf[0] << 1) | 1, leaf[1] + 1),
            leaf,
        )
        for leaf in leaves
    ]
    return PredictionMachine(tuple(states), resolve(0, deepest), kind)


def reference_greedy(table, max_states):
    """The greedy search as it split leaves over plain partitions."""
    nodes = node_counts(table)
    leaves = [(0, 0)]
    while len(leaves) < max_states:
        best_gain, best_split = 0, None
        current = partition_score(nodes, leaves)
        for index, (value, length) in enumerate(leaves):
            if length >= table.bits:
                continue
            split = [(value, length + 1), (value | (1 << length), length + 1)]
            candidate = leaves[:index] + split + leaves[index + 1 :]
            if not reference_is_determined(candidate):
                continue
            gain = partition_score(nodes, candidate) - current
            if gain > best_gain:
                best_gain, best_split = gain, index
        if best_split is None:
            break
        value, length = leaves[best_split]
        leaves[best_split : best_split + 1] = [
            (value, length + 1),
            (value | (1 << length), length + 1),
        ]
    return reference_machine(leaves, nodes), partition_score(nodes, leaves)


def predict_alike(first, second):
    """True when the two machines predict the same direction after every
    outcome sequence: every state pair reachable in lockstep from the
    two initial states agrees."""
    seen = {(first.initial, second.initial)}
    stack = list(seen)
    while stack:
        a, b = stack.pop()
        if first.predict(a) != second.predict(b):
            return False
        for taken in (False, True):
            pair = (first.next_state(a, taken), second.next_state(b, taken))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


outcomes_strategy = st.lists(st.booleans(), max_size=300)


@given(st.lists(st.integers(0, 63), max_size=10), st.integers(1, 7), outcomes_strategy)
@settings(deadline=None)
def test_shape_analysis_agrees_with_the_partition_builder(splits, bits, outcomes):
    """Along any sequence of leaf splits, a partition is valid exactly
    when its trie shape is determined, and the shape's machine predicts
    what the partition's machine predicts on every outcome sequence."""
    nodes = node_counts(table_from_outcomes(outcomes, bits))
    leaves = [(0, 0)]
    for choice in splits:
        value, length = leaves[choice % len(leaves)]
        if length >= bits:
            continue
        index = leaves.index((value, length))
        leaves[index : index + 1] = [(value, length + 1), (value | (1 << length), length + 1)]
        info = analyze_shape(_shape(leaves))
        assert reference_is_determined(leaves) == (info is not None)
        if info is None:
            continue
        assert list(info.leaves) == leaves
        machine = machine_from_shape(info, nodes)
        assert predict_alike(machine, reference_machine(leaves, nodes))


#: Two splits gain the same here; the first in leaf order must win.
TIED_SPLITS = [bit == "1" for bit in "11000110011100"]


@given(outcomes_strategy, st.integers(1, 9), st.integers(1, 8))
@example(TIED_SPLITS, 2, 3)
@settings(deadline=None)
def test_greedy_keeps_its_split_order(outcomes, bits, max_states):
    """The greedy search picks the partition, score and predictions the
    partition-based search picked, ties included."""
    table = table_from_outcomes(outcomes, bits)
    expected, correct = reference_greedy(table, max_states)
    scored = greedy_intra_machine(table, max_states)
    assert scored.correct == correct
    assert scored.machine.n_states == expected.n_states
    assert [state.pattern for state in scored.machine.states] == [
        state.pattern for state in expected.states
    ]
    assert predict_alike(scored.machine, expected)
