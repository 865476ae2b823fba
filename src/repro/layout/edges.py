"""Edge-frequency profiles for code positioning.

Block layout needs to know how often each CFG edge executes.
:func:`run_edges` runs the program, logging its transfers, and counts
every control transfer exactly; :func:`edge_profiles` folds those
counts into one :class:`EdgeProfile` per function.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..cfg import CFG
from ..interp import Machine
from ..ir import Program

Edge = Tuple[str, str]


@dataclass
class EdgeProfile:
    """Execution frequencies of one function's CFG edges."""

    function: str
    counts: Dict[Edge, int] = field(default_factory=dict)

    def count(self, source: str, target: str) -> int:
        return self.counts.get((source, target), 0)

    def add(self, source: str, target: str, count: int) -> None:
        edge = (source, target)
        self.counts[edge] = self.counts.get(edge, 0) + count

    def block_frequency(self, label: str, cfg: CFG) -> int:
        """Executions of *label*, from incoming edge counts (entry
        blocks report their outgoing flow instead)."""
        incoming = sum(
            self.counts.get((pred, label), 0) for pred in cfg.preds.get(label, ())
        )
        if incoming == 0 and label == cfg.entry:
            return sum(
                self.counts.get((label, succ), 0)
                for succ in cfg.succs.get(label, ())
            )
        return incoming

    def hot_edges(self) -> List[Tuple[Edge, int]]:
        """Edges sorted by decreasing frequency (stable on labels)."""
        return sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))

    def total(self) -> int:
        return sum(self.counts.values())


def run_edges(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
) -> Tuple[Counter, int]:
    """The executed ``(function, source, target)`` edge counts and the
    executed instructions of one instrumented run."""
    machine = Machine(program, input_values, log_transfers=True)
    steps = machine.run(*args).steps
    return machine.transfer_log.edge_counts(), steps


def edge_profiles(program: Program, edge_counts: Counter) -> Dict[str, EdgeProfile]:
    """Per-function edge frequencies from a run's edge counts."""
    profiles = {function.name: EdgeProfile(function.name) for function in program}
    for (function_name, source, target), count in edge_counts.items():
        profiles[function_name].add(source, target, count)
    return profiles
