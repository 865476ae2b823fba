"""Suffix-trie enumeration of intra-loop state machines.

An intra-loop machine's states are history patterns chosen so that
every (sufficiently long) history matches exactly one state: the states
are the **leaves of a full binary suffix trie**.  The trie branches on
the most recent outcome at the root, the next older one below, and so
on; a leaf at depth *d* is the pattern of the last *d* outcomes.

Enumerating all full binary tries with *k* leaves (there are
Catalan(k-1) of them) and keeping the ones whose transition function is
*determined* — following any outcome from any state identifies the next
state using only the bits the machine knows — yields the machine family
the paper searches exhaustively.

Shapes are independent of any particular branch, so their structural
analysis (leaf patterns, transitions, validity, strong connectivity) is
computed once and cached; scoring a shape against a branch's pattern
table is then a handful of dictionary lookups.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .machine import Pattern

#: Trie shape: a leaf is the string "L"; an internal node is a pair
#: (child-on-0, child-on-1), where the branching bit is "the next older
#: outcome" as we descend.
Shape = Union[str, Tuple["Shape", "Shape"]]

LEAF: Shape = "L"


@functools.lru_cache(maxsize=None)
def shapes_with_leaves(k: int) -> Tuple[Shape, ...]:
    """All full binary trie shapes with exactly *k* leaves."""
    if k < 1:
        return ()
    if k == 1:
        return (LEAF,)
    out: List[Shape] = []
    for left_leaves in range(1, k):
        for left in shapes_with_leaves(left_leaves):
            for right in shapes_with_leaves(k - left_leaves):
                out.append((left, right))
    return tuple(out)


def shape_leaves(shape: Shape) -> List[Pattern]:
    """Leaf patterns of *shape*, in trie DFS order."""
    leaves: List[Pattern] = []

    def walk(node: Shape, value: int, depth: int) -> None:
        if node == LEAF:
            leaves.append((value, depth))
            return
        walk(node[0], value, depth + 1)
        walk(node[1], value | (1 << depth), depth + 1)

    walk(shape, 0, 0)
    return leaves


def shape_depth(shape: Shape) -> int:
    if shape == LEAF:
        return 0
    return 1 + max(shape_depth(shape[0]), shape_depth(shape[1]))


def _walk(shape: Shape, bits: Sequence[int]) -> Optional[Pattern]:
    """Follow *bits* (most recent first) down the trie.

    Returns the leaf pattern reached, or None when the bits run out at
    an internal node (the transition would depend on history the
    machine does not remember).
    """
    node = shape
    value = 0
    depth = 0
    for bit in bits:
        if node == LEAF:
            break
        node = node[bit]
        value |= bit << depth
        depth += 1
    if node != LEAF:
        return None
    return (value, depth)


@dataclass(frozen=True)
class TrieMachineShape:
    """Structural analysis of one trie shape."""

    shape: Shape
    leaves: Tuple[Pattern, ...]
    #: transitions[i] = (next index on not-taken, next index on taken)
    transitions: Tuple[Tuple[int, int], ...]
    initial: int
    depth: int
    strongly_connected: bool

    @property
    def n_states(self) -> int:
        return len(self.leaves)


def analyze_shape(shape: Shape) -> Optional[TrieMachineShape]:
    """Compute transitions for *shape*; None if underdetermined."""
    leaves = shape_leaves(shape)
    index = {leaf: i for i, leaf in enumerate(leaves)}
    transitions: List[Tuple[int, int]] = []
    for value, length in leaves:
        row = []
        for bit in (0, 1):
            # After outcome `bit` the known recent history is `bit`
            # followed by this leaf's bits, oldest last.
            bits = [bit] + [(value >> i) & 1 for i in range(length)]
            target = _walk(shape, bits)
            if target is None:
                return None
            row.append(index[target])
        transitions.append((row[0], row[1]))
    initial = _walk(shape, [0] * (shape_depth(shape) + 1))
    assert initial is not None  # all-zero path always reaches a leaf
    info = TrieMachineShape(
        shape=shape,
        leaves=tuple(leaves),
        transitions=tuple(transitions),
        initial=index[initial],
        depth=shape_depth(shape),
        strongly_connected=_strongly_connected(transitions),
    )
    return info


def _strongly_connected(transitions: Sequence[Tuple[int, int]]) -> bool:
    count = len(transitions)
    for start in range(count):
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in transitions[node]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        if len(seen) != count:
            return False
    return True


@functools.lru_cache(maxsize=None)
def valid_shapes(
    n_leaves: int, max_depth: int = 9, require_connected: bool = True
) -> Tuple[TrieMachineShape, ...]:
    """All determined (and optionally strongly connected) trie machine
    shapes with exactly *n_leaves* states and depth ≤ *max_depth*."""
    result: List[TrieMachineShape] = []
    for shape in shapes_with_leaves(n_leaves):
        if shape_depth(shape) > max_depth:
            continue
        info = analyze_shape(shape)
        if info is None:
            continue
        if require_connected and not info.strongly_connected:
            continue
        result.append(info)
    return tuple(result)
