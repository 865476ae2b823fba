"""Predecessor-path enumeration for correlated branches.

"For all branches all predecessors with a path length less than the
size of the state machine are collected" (Section 5).  A *path* here is
a concrete block route ending at a target block, together with the
sequence of conditional-branch decisions taken along it.  Paths are
what the correlated-branch replication duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir import Branch, BranchSite, Function
from .graph import CFG


@dataclass(frozen=True)
class PathStep:
    """One decision on a path: *site* went in direction *taken*."""

    site: BranchSite
    taken: bool


@dataclass(frozen=True)
class Path:
    """A control-flow path reaching some block.

    ``blocks`` is the block route, oldest block first, ending with the
    target block itself.  ``steps`` are the branch decisions along the
    route, oldest first — ``steps[-1]`` is the decision immediately
    preceding the target.
    """

    steps: Tuple[PathStep, ...]
    blocks: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def pattern(self) -> Tuple[int, int]:
        """The decisions as a history pattern (value, length) with the
        most recent decision in bit 0."""
        value = 0
        for index, step in enumerate(reversed(self.steps)):
            if step.taken:
                value |= 1 << index
        return value, len(self.steps)

    def __str__(self) -> str:
        bits = "".join("1" if step.taken else "0" for step in self.steps)
        return f"{bits or 'ε'}:{'->'.join(self.blocks)}"


def predecessor_paths(
    function: Function,
    target: str,
    max_branches: int,
    max_paths: int = 4096,
    cfg: Optional[CFG] = None,
) -> List[Path]:
    """Enumerate CFG paths ending at block *target*.

    Walks backwards from *target* collecting up to *max_branches*
    conditional-branch decisions per path.  A path stops early at the
    function entry, when it would revisit a block already on it (one
    unrolling only), or when *max_branches* decisions were gathered.
    Enumeration is cut off at *max_paths* paths to bound work on
    pathological CFGs.  *cfg*, when given, is *function*'s current CFG;
    otherwise one is built.
    """
    if cfg is None:
        cfg = CFG.from_function(function)
    blocks = function.blocks
    preds = cfg.preds
    # Worklist of (current block, decisions as (block, taken) pairs
    # oldest first, block route target-first); the Path objects are
    # built once per result.
    results: List[Tuple[Tuple[str, ...], Tuple[Tuple[str, bool], ...]]] = []
    stack: List[Tuple[str, Tuple[Tuple[str, bool], ...], Tuple[str, ...]]] = [
        (target, (), (target,))
    ]
    while stack and len(results) < max_paths:
        label, steps, route = stack.pop()
        extended = False
        if len(steps) < max_branches:
            for pred in preds.get(label, ()):
                if pred in route:
                    continue
                branch = blocks[pred].terminator
                if not isinstance(branch, Branch):
                    stack.append((pred, steps, route + (pred,)))
                    extended = True
                    continue
                # The branch may reach `label` on either (or both) arms;
                # enumerate each decision separately.
                if branch.taken == label:
                    stack.append((pred, ((pred, True),) + steps, route + (pred,)))
                    extended = True
                if branch.not_taken == label:
                    stack.append((pred, ((pred, False),) + steps, route + (pred,)))
                    extended = True
        if not extended:
            results.append((route, steps))
    # De-duplicate identical block routes (the decision sequence is a
    # function of the route).  Paths share their PathStep objects: one
    # per distinct decision.
    name = function.name
    made: Dict[Tuple[str, bool], PathStep] = {}
    paths: List[Path] = []
    for route, decisions in dict.fromkeys(results):
        steps = []
        for decision in decisions:
            step = made.get(decision)
            if step is None:
                step = made[decision] = PathStep(BranchSite(name, decision[0]), decision[1])
            steps.append(step)
        paths.append(Path(tuple(steps), route[::-1]))
    return paths
