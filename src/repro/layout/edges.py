"""Edge-frequency profiles for code positioning.

Block layout needs to know how often each CFG edge executes.  The
preferred source is an instrumented run (:func:`profile_edges`), which
counts every control transfer exactly.  When only a branch trace is
available, :func:`edge_profile_from_trace` recovers the conditional
edges exactly and leaves unconditional edges to a flow estimate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..cfg import CFG
from ..interp import Machine
from ..ir import Jump, Program
from ..profiling import Trace

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
    max_steps: int = 100_000_000,
) -> Tuple[Counter, int]:
    """The executed ``(function, source, target)`` edge counts and the
    executed instructions of one instrumented run."""
    machine = Machine(program, input_values, max_steps, log_transfers=True)
    steps = machine.run(*args).steps
    return machine.transfer_log.edge_counts(), steps


def edge_profiles(program: Program, edge_counts: Counter) -> Dict[str, EdgeProfile]:
    """Per-function edge frequencies from a run's edge counts."""
    profiles = {function.name: EdgeProfile(function.name) for function in program}
    for (function_name, source, target), count in edge_counts.items():
        profiles[function_name].add(source, target, count)
    return profiles


def profile_edges(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 100_000_000,
) -> Dict[str, EdgeProfile]:
    """Exact per-function edge frequencies from an instrumented run."""
    return edge_profiles(program, run_edges(program, args, input_values, max_steps)[0])


def edge_profile_from_trace(
    program: Program, trace: Trace
) -> Dict[str, EdgeProfile]:
    """Approximate edge frequencies from a branch trace alone.

    Conditional edges are exact.  A jump-terminated block's outgoing
    edge is estimated by the block's incoming flow, iterated to a fixed
    point; function entries and blocks reached only through calls keep
    zero counts.  Good enough to rank hot edges for layout.
    """
    profiles = {function.name: EdgeProfile(function.name) for function in program}
    for site, (not_taken, taken) in trace.taken_counts().items():
        function = program.functions.get(site.function)
        if function is None or site.block not in function.blocks:
            continue
        branch = function.block(site.block).branch
        if branch is None:
            continue
        profile = profiles[site.function]
        profile.add(site.block, branch.taken, taken)
        profile.add(site.block, branch.not_taken, not_taken)
    for function in program:
        profile = profiles[function.name]
        cfg = CFG.from_function(function)
        for _ in range(len(function.blocks)):
            changed = False
            for block in function:
                if not isinstance(block.terminator, Jump):
                    continue
                flow = profile.block_frequency(block.label, cfg)
                edge = (block.label, block.terminator.target)
                if flow > profile.counts.get(edge, 0):
                    profile.counts[edge] = flow
                    changed = True
            if not changed:
                break
    return profiles
