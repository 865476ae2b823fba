"""Loop replication (Section 5, Figure 1).

Given a loop, one branch inside it and a prediction state machine, the
transform makes one copy of the loop body per machine state and wires
the improved branch so that executing it moves control into the copy
for the machine's next state.  The machine state is thereby encoded in
the program counter, and each copy's instance of the branch carries the
state's fixed prediction.  Copies that end up unreachable — Figure 1's
blocks "2b" and "3a" — are discarded.

When an earlier replication has already duplicated the improved branch
(several copies of one static branch now live in the same loop), all
copies are passed together: they drive the *same* machine, because the
machine state tracks the history of the static branch regardless of
which copy executed.  This is what makes the sizes of machines for
several branches in one loop multiply, as the paper observes.

The transform is semantics-preserving: every copy is an exact clone and
only successor labels are rewritten.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cfg import CFG, Loop
from ..ir import BranchSite, Function, IRError, retarget
from ..statemachines import PredictionMachine


@dataclass
class LoopReplicationResult:
    """Bookkeeping from one loop replication."""

    site: BranchSite
    n_states: int
    #: original label -> state index -> copy label (surviving copies only)
    copies: Dict[str, Dict[int, str]]
    removed: List[str]
    size_before: int
    size_after: int

    def surviving_sites(self, original: BranchSite) -> List[BranchSite]:
        """Where copies of *original* (a branch block in the loop) live
        after the transform."""
        mapping = self.copies.get(original.block)
        if mapping is None:
            return [original]
        return [BranchSite(original.function, label) for label in mapping.values()]


def replicate_loop_branch(
    function: Function,
    loop: Loop,
    branch_labels: Union[str, Sequence[str]],
    machine: PredictionMachine,
    prediction_for=None,
    cfg: Optional[CFG] = None,
) -> LoopReplicationResult:
    """Replicate *loop* in *function* to realise *machine* for the
    branch(es) terminating the *branch_labels* blocks.

    Multiple labels mean several copies of the same static branch (from
    an earlier replication); they share the machine.  The improved
    branches' in-loop successors are routed to the copy of the
    machine's next state; every other in-loop edge stays within its
    copy; loop entries from outside go to the initial state's copy.

    ``prediction_for(state_index, label)`` overrides the planted
    prediction per copy — joint machines predict per branch, not per
    state, and pass their own resolver here.

    *cfg*, when given, is *function*'s current CFG and is kept current;
    otherwise one is built.
    """
    if isinstance(branch_labels, str):
        branch_labels = [branch_labels]
    if prediction_for is None:
        def prediction_for(state_index: int, _label: str) -> bool:
            return machine.states[state_index].prediction
    if not branch_labels:
        raise IRError("need at least one branch block to improve")
    improved = set(branch_labels)
    for label in improved:
        if label not in loop.body:
            raise IRError(f"branch block {label!r} is not in the loop")
        if function.block(label).branch is None:
            raise IRError(f"block {label!r} has no conditional branch")
    if cfg is None:
        cfg = CFG.from_function(function)
    size_before = cfg.size
    site = BranchSite(function.name, branch_labels[0])

    # Loop.body is a set; iterate it in the function's block-layout
    # order so copy creation (and hence the replicated program's block
    # layout) is independent of hash randomisation.
    body_order = [label for label in function.blocks if label in loop.body]

    # Fresh labels for every (state, loop block) pair.
    labels: Dict[Tuple[int, str], str] = {}
    for state_index, state in enumerate(machine.states):
        for label in body_order:
            fresh = function.fresh_label(f"{label}@{state.name}.{state_index}")
            labels[(state_index, label)] = fresh
            # Reserve the label immediately so fresh_label stays unique.
            cfg.reserve(fresh)

    # Build the copies.
    for state_index, state in enumerate(machine.states):

        def in_state(target: str, _state: int = state_index) -> str:
            return labels.get((_state, target), target)

        for label in body_order:
            original = function.block(label)
            copy = original.copy(labels[(state_index, label)])
            if label in improved:
                branch = original.branch
                taken_target = branch.taken
                if taken_target in loop.body:
                    taken_target = labels[
                        (machine.next_state(state_index, True), branch.taken)
                    ]
                not_taken_target = branch.not_taken
                if not_taken_target in loop.body:
                    not_taken_target = labels[
                        (machine.next_state(state_index, False), branch.not_taken)
                    ]
                copy.terminator = dataclasses.replace(
                    branch,
                    taken=taken_target,
                    not_taken=not_taken_target,
                    predict=prediction_for(state_index, label),
                )
            else:
                copy.terminator = retarget(original.terminator, in_state)
            function.blocks[copy.label] = copy

    # Entry edges from outside the loop now enter the initial state.
    entry_label = labels[(machine.initial, loop.header)]

    def to_entry(target: str) -> str:
        return entry_label if target == loop.header else target

    # The copies are not synced yet, so the header's predecessors are
    # the original loop body plus the entering blocks.
    entering = [
        label for label in dict.fromkeys(cfg.preds[loop.header]) if label not in loop.body
    ]
    for label in entering:
        block = function.blocks[label]
        block.terminator = retarget(block.terminator, to_entry)

    # The original loop body is now unreachable (unless the header is
    # the function entry, in which case we re-point the entry).
    if function.entry in loop.body:
        if function.entry != loop.header:
            raise IRError("function entry inside loop but not the header")
        cfg.set_entry(entry_label)
    cfg.sync(labels.values())
    cfg.sync(entering)
    removed = cfg.remove_unreachable()

    surviving: Dict[str, Dict[int, str]] = {}
    for (state_index, label), copy_label in labels.items():
        if copy_label in function.blocks:
            surviving.setdefault(label, {})[state_index] = copy_label
    return LoopReplicationResult(
        site=site,
        n_states=machine.n_states,
        copies=surviving,
        removed=removed,
        size_before=size_before,
        size_after=cfg.size,
    )
