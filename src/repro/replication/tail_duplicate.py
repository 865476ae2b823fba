"""Tail duplication for correlated branches (Section 4.3 / 5).

"The code replication for correlated branches is similar to [MW92].
The difference is that our aim was to save information about the
branch direction."

Given a branch whose direction correlates with the decisions of the
branches leading to it, every control-flow path (up to a decision
depth) ending at the branch gets its own copy of the intervening join
blocks and of the branch block itself.  Each copy is then reached by
exactly one decision sequence, so it can carry the prediction of the
correlated machine state that sequence selects.

Paths sharing a prefix share copies (the duplicated region forms a
trie rooted at each path's oldest block), so the code growth is the
sum of the distinct path-prefix block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cfg import CFG, predecessor_paths
from ..ir import Branch, BranchSite, Function, IRError, Jump, Terminator
from ..statemachines import CorrelatedMachine, is_suffix


@dataclass
class TailDuplicationResult:
    """Bookkeeping from one correlated-branch duplication."""

    site: BranchSite
    #: decision pattern (value, length) -> copy label of the target block
    copies: Dict[Tuple[Tuple[int, int], Tuple[str, ...]], str]
    removed: List[str]
    size_before: int
    size_after: int


def _prediction_for(machine: CorrelatedMachine, pattern: Tuple[int, int]) -> bool:
    """Prediction for a path with known decision bits *pattern*: the
    longest machine path that is a suffix of the known bits, else the
    catch-all."""
    best: Optional[int] = None
    best_length = -1
    for index, candidate in enumerate(machine.paths):
        if candidate[1] > best_length and is_suffix(candidate, pattern):
            best = index
            best_length = candidate[1]
    if best is None:
        return machine.fallback
    return machine.predictions[best]


def estimate_duplication_cost(
    function: Function, target: str, depth: int
) -> int:
    """Instructions added by :func:`duplicate_correlated_branch` with
    the given decision *depth*, without performing the transform."""
    paths = predecessor_paths(function, target, depth)
    prefixes = set()
    for path in paths:
        # Copies are made for every block after the path's first block.
        for position in range(2, len(path.blocks) + 1):
            prefixes.add(path.blocks[:position])
    return sum(function.block(prefix[-1]).size() for prefix in prefixes)


def duplicate_correlated_branch(
    function: Function,
    target: str,
    machine: CorrelatedMachine,
    cfg: Optional[CFG] = None,
) -> TailDuplicationResult:
    """Give every decision path ending at *target*, up to the length of
    the machine's longest path, its own copy of the path's blocks, and
    plant the machine's predictions in the copies of the target branch.

    *cfg*, when given, is *function*'s current CFG and is kept current;
    otherwise one is built.
    """
    block = function.block(target)
    if block.branch is None:
        raise IRError(f"block {target!r} has no conditional branch")
    depth = max((length for _, length in machine.paths), default=0)
    site = BranchSite(function.name, target)
    if cfg is None:
        cfg = CFG.from_function(function)
    size_before = cfg.size
    if depth == 0:
        # Nothing to duplicate; just annotate the catch-all prediction.
        block.terminator = _predicting(block.branch, machine.fallback)
        return TailDuplicationResult(site, {}, [], size_before, size_before)

    paths = predecessor_paths(function, target, depth, cfg=cfg)
    blocks = function.blocks

    # The routes form a trie rooted at each route's first (uncopied)
    # block: one copy per node and one redirect per new edge.  A node is
    # keyed by its parent's label (the root's, or the parent copy's) and
    # its block.  Nodes are made in the order the paths first reach
    # them, which numbers the copies and lays them out.  A copy clones
    # its original's terminator as it stands then: it inherits any
    # redirect an earlier path made in that original as a route head,
    # and its own children in the trie are then left unreachable.
    copy_labels: Dict[Tuple[str, str], str] = {}
    target_copies: Dict[Tuple[Tuple[int, int], Tuple[str, ...]], str] = {}
    heads: Dict[str, None] = {}
    for path in paths:
        route = path.blocks
        if len(route) < 2:
            continue
        source = route[0]  # the node holding the edge into the next one
        for original in route[1:]:
            label = copy_labels.get((source, original))
            if label is None:
                label = function.fresh_label(f"{original}~{len(copy_labels)}")
                copy_labels[source, original] = label
                cfg.reserve(label)
                blocks[label] = blocks[original].copy(label)
                parent = blocks[source]
                parent.terminator = _redirect(parent.terminator, original, label)
                if source == route[0]:
                    heads[source] = None
            source = label
        # The last copy is the target's; annotate its prediction.
        pattern = path.pattern
        final_copy = blocks[source]
        final_copy.terminator = _predicting(
            final_copy.terminator, _prediction_for(machine, pattern)
        )
        target_copies[(pattern, route)] = source

    # The original target (and possibly some join blocks) may now be
    # unreachable.
    block.terminator = _predicting(block.branch, machine.fallback)
    cfg.sync(copy_labels.values())
    cfg.sync(heads)
    removed = cfg.remove_unreachable()
    surviving = {
        key: label for key, label in target_copies.items() if label in function.blocks
    }
    return TailDuplicationResult(site, surviving, removed, size_before, cfg.size)


def _redirect(terminator: Terminator, old: str, new: str) -> Terminator:
    """*terminator*, a jump or a branch, with its edges to *old* sent to
    *new*."""
    if terminator.__class__ is Jump:
        return Jump(new) if terminator.target == old else terminator
    return Branch(
        terminator.op,
        terminator.lhs,
        terminator.rhs,
        new if terminator.taken == old else terminator.taken,
        new if terminator.not_taken == old else terminator.not_taken,
        terminator.pointer,
        terminator.predict,
    )


def _predicting(branch: Branch, predict: bool) -> Branch:
    """*branch* predicting *predict*."""
    return Branch(
        branch.op,
        branch.lhs,
        branch.rhs,
        branch.taken,
        branch.not_taken,
        branch.pointer,
        predict,
    )
