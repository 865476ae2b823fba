"""Profile-guided code positioning (Pettis/Hansen style).

The paper's replication idea "was inspired by the work of Pettis and
Hanson, who use profiling for code positioning"; and its prediction
output feeds *branch alignment* — arranging blocks so that the likely
(or predicted) successor is the fall-through.  This module implements
both:

* :func:`build_chains` / :func:`order_blocks` — bottom-up chain layout
  over an edge profile: the hottest edges are glued into straight-line
  chains, chains are emitted hottest-first, the entry chain first;
* :func:`align_branches` — flip branch polarity so that the predicted
  direction is the fall-through edge whenever layout permits;
* :func:`taken_transfer_stats` — the evaluation metric: the executed
  control transfers that do NOT fall through to the next block in
  layout order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cfg import CFG
from ..interp import Machine
from ..ir import Function, IRError, Program
from .edges import EdgeProfile


def build_chains(function: Function, profile: EdgeProfile) -> List[List[str]]:
    """Greedy bottom-up chaining: process edges hottest first, merging
    the source's chain tail with the target's chain head."""
    chain_of: Dict[str, List[str]] = {}
    for label in function.blocks:
        chain_of[label] = [label]
    for (source, target), count in profile.hot_edges():
        if count <= 0 or source not in chain_of or target not in chain_of:
            continue
        source_chain = chain_of[source]
        target_chain = chain_of[target]
        if source_chain is target_chain:
            continue
        if source_chain[-1] != source or target_chain[0] != target:
            continue  # only tail-to-head merges keep chains straight
        source_chain.extend(target_chain)
        for label in target_chain:
            chain_of[label] = source_chain
    seen = set()
    chains: List[List[str]] = []
    for label in function.blocks:
        chain = chain_of[label]
        if id(chain) in seen:
            continue
        seen.add(id(chain))
        chains.append(chain)
    return chains


def order_blocks(function: Function, profile: EdgeProfile) -> List[str]:
    """A full block order: the entry's chain first (entry at its head
    position), remaining chains by decreasing hotness."""
    cfg = CFG.from_function(function)
    chains = build_chains(function, profile)

    def chain_heat(chain: List[str]) -> int:
        return sum(profile.block_frequency(label, cfg) for label in chain)

    entry_chain: Optional[List[str]] = None
    rest: List[List[str]] = []
    for chain in chains:
        if function.entry in chain:
            entry_chain = chain
        else:
            rest.append(chain)
    assert entry_chain is not None
    rest.sort(key=chain_heat, reverse=True)
    order: List[str] = []
    # The entry must be the first block overall; rotate its chain if an
    # earlier chain member precedes it.
    entry_index = entry_chain.index(function.entry)
    order.extend(entry_chain[entry_index:])
    leftover = entry_chain[:entry_index]
    for chain in rest + ([leftover] if leftover else []):
        order.extend(chain)
    return order


def apply_layout(function: Function, order: Sequence[str]) -> None:
    """Reorder the function's blocks in place."""
    if set(order) != set(function.blocks):
        raise IRError("layout order must be a permutation of the blocks")
    if order[0] != function.entry:
        raise IRError("layout must keep the entry block first")
    function.blocks = {label: function.blocks[label] for label in order}


def align_branches(function: Function) -> int:
    """Flip branches so the *predicted* direction is not-taken.

    After alignment, a branch annotated ``predict`` falls through on
    its predicted path, which the chain layout can then place next.
    Unannotated branches are left alone.  Returns the number of
    branches flipped.
    """
    flipped = 0
    for block in function:
        branch = block.branch
        if branch is None or branch.predict is not True:
            continue
        block.terminator = branch.negated()
        flipped += 1
    return flipped


def layout_program(
    program: Program, profiles: Dict[str, EdgeProfile], align: bool = True
) -> int:
    """Align + chain-order every function; returns flipped branches."""
    flipped = 0
    for function in program:
        if align:
            flipped += align_branches(function)
        profile = profiles.get(function.name, EdgeProfile(function.name))
        apply_layout(function, order_blocks(function, profile))
    return flipped


@dataclass
class TransferStats:
    """Dynamic control-transfer statistics of one run."""

    taken: int
    transfers: int
    instructions: int

    @property
    def taken_rate(self) -> float:
        """Taken transfers as a fraction of all transfers."""
        return self.taken / self.transfers if self.transfers else 0.0

    @property
    def taken_per_instruction(self) -> float:
        """Taken transfers per executed instruction — comparable across
        program variants that execute different instruction counts
        (e.g. before/after loop rotation)."""
        return self.taken / self.instructions if self.instructions else 0.0


def taken_transfer_stats(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 100_000_000,
) -> TransferStats:
    """Count executed intra-function control transfers that do not fall
    through under the current block layout."""
    machine = Machine(program, input_values, max_steps, count_edges=True)
    result = machine.run(*args)
    next_block: Dict[Tuple[str, str], Optional[str]] = {}
    for function in program:
        labels = list(function.blocks)
        for position, label in enumerate(labels):
            following = labels[position + 1] if position + 1 < len(labels) else None
            next_block[(function.name, label)] = following
    total = 0
    taken = 0
    for (function_name, source, target), count in machine.edge_counts.items():
        total += count
        if next_block.get((function_name, source)) != target:
            taken += count
    return TransferStats(taken, total, result.steps)

