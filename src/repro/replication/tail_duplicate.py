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

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cfg import CFG, predecessor_paths
from ..ir import BranchSite, Function, IRError, retarget
from ..statemachines import CorrelatedMachine, is_suffix


@dataclass
class TailDuplicationResult:
    """Bookkeeping from one correlated-branch duplication."""

    site: BranchSite
    #: decision pattern (value, length) -> copy label of the target block
    copies: Dict[Tuple[Tuple[int, int], Tuple[str, ...]], str]
    #: original block label -> surviving copy labels (all copied blocks)
    block_copies: Dict[str, List[str]]
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
    depth: Optional[int] = None,
    cfg: Optional[CFG] = None,
) -> TailDuplicationResult:
    """Give every decision path of length ≤ *depth* ending at *target*
    its own copy of the path's blocks, and plant the machine's
    predictions in the copies of the target branch.

    *depth* defaults to the machine's longest path.  *cfg*, when given,
    is *function*'s current CFG and is kept current; otherwise one is
    built.
    """
    block = function.block(target)
    if block.branch is None:
        raise IRError(f"block {target!r} has no conditional branch")
    if depth is None:
        depth = max((length for _, length in machine.paths), default=0)
    site = BranchSite(function.name, target)
    if cfg is None:
        cfg = CFG.from_function(function)
    size_before = cfg.size
    if depth == 0:
        # Nothing to duplicate; just annotate the catch-all prediction.
        block.terminator = dataclasses.replace(
            block.branch, predict=machine.fallback
        )
        return TailDuplicationResult(site, {}, {}, [], size_before, size_before)

    paths = predecessor_paths(function, target, depth, cfg=cfg)

    # One copy per distinct path prefix (beyond the first, uncopied
    # block).  Prefix key: the block route from the path start.
    copy_labels: Dict[Tuple[str, ...], str] = {}

    def copy_label_for(prefix: Tuple[str, ...]) -> str:
        label = copy_labels.get(prefix)
        if label is None:
            label = function.fresh_label(f"{prefix[-1]}~{len(copy_labels)}")
            copy_labels[prefix] = label
            cfg.reserve(label)
        return label

    # Materialise copies: iterate path prefixes; each copy's edge to
    # the next block on the path is retargeted to the next copy.
    target_copies: Dict[Tuple[Tuple[int, int], Tuple[str, ...]], str] = {}
    heads: Dict[str, None] = {}
    for path in paths:
        route = path.blocks
        if len(route) < 2:
            continue
        for position in range(1, len(route)):
            prefix = route[: position + 1]
            label = copy_label_for(prefix)
            original = function.block(route[position])
            copy = function.blocks.get(label)
            if copy is None:
                copy = original.copy(label)
                function.blocks[label] = copy
            if position + 1 < len(route):
                next_label = copy_label_for(route[: position + 2])
                succ = route[position + 1]

                def into_copy(old: str, _succ=succ, _new=next_label) -> str:
                    return _new if old == _succ else old

                copy.terminator = retarget(copy.terminator, into_copy)
        # The last copy is the target's; annotate its prediction.
        final_label = copy_labels[route]
        final_copy = function.blocks[final_label]
        final_copy.terminator = dataclasses.replace(
            final_copy.branch, predict=_prediction_for(machine, path.pattern)
        )
        target_copies[(path.pattern, route)] = final_label
        # Wire the (uncopied) first block of the route into the chain.
        head = function.block(route[0])
        second = copy_labels[route[:2]]

        def into_chain(old: str, _succ=route[1], _new=second) -> str:
            return _new if old == _succ else old

        head.terminator = retarget(head.terminator, into_chain)
        heads[route[0]] = None

    # The original target (and possibly some join blocks) may now be
    # unreachable.
    block.terminator = dataclasses.replace(block.branch, predict=machine.fallback)
    cfg.sync(copy_labels.values())
    cfg.sync(heads)
    removed = cfg.remove_unreachable()
    surviving = {
        key: label for key, label in target_copies.items() if label in function.blocks
    }
    block_copies: Dict[str, List[str]] = {}
    for prefix, label in copy_labels.items():
        if label in function.blocks:
            block_copies.setdefault(prefix[-1], []).append(label)
    return TailDuplicationResult(
        site, surviving, block_copies, removed, size_before, cfg.size
    )
