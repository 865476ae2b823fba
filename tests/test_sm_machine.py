"""PredictionMachine representation and simulation tests."""

import pytest

from repro.statemachines import (
    MachineState,
    PredictionMachine,
    is_suffix,
    pattern_str,
    pattern_suffix,
    single_state_machine,
)
from repro.statemachines.trie import _strongly_connected


def two_state_alternator() -> PredictionMachine:
    """Figure 1's machine: state = last outcome, predict the opposite."""
    return PredictionMachine(
        (
            MachineState("0", True, 0, 1, (0, 1)),
            MachineState("1", False, 0, 1, (1, 1)),
        ),
        initial=0,
        kind="intra-loop",
    )


def strongly_connected(machine: PredictionMachine) -> bool:
    """The trie search's connectivity check on *machine*'s transitions."""
    return _strongly_connected([(state.on_not_taken, state.on_taken) for state in machine.states])


class TestPatternHelpers:
    def test_pattern_str_oldest_first(self):
        # Newest bit is the LSB and is printed last ("the rightmost
        # digit represents the direction of the last iteration"), so the
        # rendering coincides with the binary literal.
        assert pattern_str((0b001, 3)) == "001"
        assert pattern_str((0b100, 3)) == "100"
        assert pattern_str((0b10, 2)) == "10"

    def test_pattern_str_empty(self):
        assert pattern_str((0, 0)) == "ε"
        assert pattern_str(None) == "*"

    def test_pattern_suffix(self):
        assert pattern_suffix((0b1101, 4), 2) == (0b01, 2)
        assert pattern_suffix((0b11, 2), 5) == (0b11, 2)

    def test_is_suffix(self):
        assert is_suffix((0b1, 1), (0b11, 2))
        assert is_suffix((0b01, 2), (0b101, 3))
        assert not is_suffix((0b0, 1), (0b11, 2))
        assert not is_suffix((0b111, 3), (0b11, 2))


class TestMachineValidation:
    def test_bad_transition_rejected(self):
        with pytest.raises(ValueError):
            PredictionMachine(
                (MachineState("0", True, 0, 5),), initial=0
            )

    def test_bad_initial_rejected(self):
        with pytest.raises(ValueError):
            PredictionMachine(
                (MachineState("0", True, 0, 0),), initial=3
            )


class TestSimulation:
    def test_alternator_perfect_on_alternating(self):
        machine = two_state_alternator()
        outcomes = [True, False] * 50
        correct, total = machine.simulate(outcomes)
        assert total == 100
        assert correct >= 99  # at most one warmup miss

    def test_alternator_half_on_constant(self):
        machine = two_state_alternator()
        correct, total = machine.simulate([True] * 100)
        assert correct <= 2  # predicts the opposite almost always

    def test_single_state_machine(self):
        machine = single_state_machine(True)
        correct, total = machine.simulate([True, True, False])
        assert (correct, total) == (2, 3)

    def test_next_state(self):
        machine = two_state_alternator()
        assert machine.next_state(0, True) == 1
        assert machine.next_state(1, False) == 0

    def test_reachability(self):
        machine = two_state_alternator()
        assert machine.reachable_states() == [0, 1]

    def test_strong_connectivity(self):
        assert strongly_connected(two_state_alternator())

    def test_sink_state_not_strongly_connected(self):
        machine = PredictionMachine(
            (
                MachineState("a", True, 1, 1),
                MachineState("b", True, 1, 1),  # sink
            ),
            initial=0,
        )
        assert not strongly_connected(machine)

    def test_describe_mentions_states(self):
        text = two_state_alternator().describe()
        assert "[0]" in text and "[1]" in text
        assert "predict" in text
