"""Predecessor-path enumeration for correlated branches.

"For all branches all predecessors with a path length less than the
size of the state machine are collected" (Section 5).  A *path* here is
a concrete block route ending at a target block, together with the
sequence of conditional-branch decisions taken along it.  Paths are
what the correlated-branch replication duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ir import BranchSite, Function
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
    results: List[Path] = []
    # Worklist of (current block, steps newest-last reversed order,
    # block route target-first, visited set).
    stack: List[Tuple[str, Tuple[PathStep, ...], Tuple[str, ...], frozenset]] = [
        (target, (), (target,), frozenset((target,)))
    ]
    while stack and len(results) < max_paths:
        label, steps, route, visited = stack.pop()
        preds = cfg.preds.get(label, [])
        extended = False
        if len(steps) < max_branches:
            for pred in preds:
                if pred in visited:
                    continue
                block = function.block(pred)
                branch = block.branch
                if branch is None:
                    stack.append(
                        (pred, steps, route + (pred,), visited | {pred})
                    )
                    extended = True
                    continue
                site = BranchSite(function.name, pred)
                # The branch may reach `label` on either (or both) arms;
                # enumerate each decision separately.
                for direction, arm in ((True, branch.taken), (False, branch.not_taken)):
                    if arm != label:
                        continue
                    step = PathStep(site, direction)
                    stack.append(
                        (pred, (step,) + steps, route + (pred,), visited | {pred})
                    )
                    extended = True
        if not extended:
            results.append(Path(steps, tuple(reversed(route))))
    # De-duplicate identical block routes (the decision sequence is a
    # function of the route).
    unique = {}
    for path in results:
        unique.setdefault((path.blocks, path.steps), path)
    return list(unique.values())
