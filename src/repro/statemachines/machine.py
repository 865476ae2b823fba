"""Branch prediction state machines (Section 4).

A :class:`PredictionMachine` is a small deterministic automaton over
branch outcomes.  Each state carries a fixed direction prediction; the
transition function consumes the actual outcome.  Code replication
later materialises the automaton in the program text — one copy of the
code per state — so "the outcome of branches is represented in the
program state".

States usually correspond to *history patterns*: the last *k* outcomes
of the branch (or of all branches, for correlated machines).  Patterns
are stored as ``(value, length)`` with **bit 0 = most recent outcome**;
:func:`pattern_str` renders them the way the paper prints states
(oldest outcome leftmost, "the rightmost digit represents the direction
of the last iteration").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


Pattern = Tuple[int, int]  # (value, length), LSB = most recent outcome


def pattern_str(pattern: Optional[Pattern]) -> str:
    """Render a pattern the way the paper does (oldest bit first)."""
    if pattern is None:
        return "*"
    value, length = pattern
    if length == 0:
        return "ε"
    return "".join(str((value >> i) & 1) for i in range(length - 1, -1, -1))


def pattern_suffix(pattern: Pattern, bits: int) -> Pattern:
    """The *bits* most recent outcomes of *pattern*."""
    value, length = pattern
    if bits >= length:
        return pattern
    return (value & ((1 << bits) - 1), bits)


def is_suffix(shorter: Pattern, longer: Pattern) -> bool:
    """True iff *shorter* equals the most recent bits of *longer*."""
    svalue, slength = shorter
    lvalue, llength = longer
    if slength > llength:
        return False
    return (lvalue & ((1 << slength) - 1)) == svalue


@dataclass(frozen=True)
class MachineState:
    """One state: a prediction plus transitions on the two outcomes."""

    name: str
    prediction: bool
    on_not_taken: int
    on_taken: int
    pattern: Optional[Pattern] = None

    def next(self, taken: bool) -> int:
        return self.on_taken if taken else self.on_not_taken


@dataclass(frozen=True)
class PredictionMachine:
    """A scored branch prediction state machine."""

    states: Tuple[MachineState, ...]
    initial: int
    kind: str = "generic"

    def __post_init__(self) -> None:
        for state in self.states:
            if not (0 <= state.on_taken < len(self.states)):
                raise ValueError(f"state {state.name!r}: bad taken transition")
            if not (0 <= state.on_not_taken < len(self.states)):
                raise ValueError(f"state {state.name!r}: bad not-taken transition")
        if not (0 <= self.initial < len(self.states)):
            raise ValueError("bad initial state")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def next_state(self, state: int, taken: bool) -> int:
        return self.states[state].next(taken)

    def predict(self, state: int) -> bool:
        return self.states[state].prediction

    def simulate(self, outcomes: Iterable[bool]) -> Tuple[int, int]:
        """Run the machine over an outcome sequence.

        Returns (correct predictions, total outcomes) — the exact
        semantics the replicated code realises.
        """
        states = self.states
        current = self.initial
        correct = 0
        total = 0
        for taken in outcomes:
            state = states[current]
            if state.prediction is bool(taken):
                correct += 1
            total += 1
            current = state.on_taken if taken else state.on_not_taken
        return correct, total

    def reachable_states(self) -> List[int]:
        """States reachable from the initial state."""
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            index = stack.pop()
            state = self.states[index]
            for succ in (state.on_not_taken, state.on_taken):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return sorted(seen)

    def describe(self) -> str:
        """One-line-per-state textual summary."""
        lines = [f"{self.kind} machine, {self.n_states} states, initial "
                 f"{self.states[self.initial].name!r}"]
        for index, state in enumerate(self.states):
            marker = "*" if index == self.initial else " "
            lines.append(
                f" {marker} [{state.name}] predict "
                f"{'taken' if state.prediction else 'not-taken'}; "
                f"0 -> {self.states[state.on_not_taken].name}, "
                f"1 -> {self.states[state.on_taken].name}"
            )
        return "\n".join(lines)


@dataclass
class ScoredMachine:
    """A machine plus its training-profile score.

    ``machine`` is a :class:`PredictionMachine` or a
    :class:`~repro.statemachines.correlated.CorrelatedMachine` (the two
    machine families share scoring but not transition structure).
    """

    machine: "object"
    correct: int
    total: int

    @property
    def mispredictions(self) -> int:
        return self.total - self.correct

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.total if self.total else 0.0


def single_state_machine(prediction: bool, kind: str = "profile") -> PredictionMachine:
    """The degenerate 1-state machine — plain profile prediction."""
    state = MachineState("*", prediction, 0, 0, None)
    return PredictionMachine((state,), 0, kind)
