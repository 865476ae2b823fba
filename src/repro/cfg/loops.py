"""Natural-loop detection and the loop nesting forest [ASU86 §10.4].

A back edge is an edge ``tail -> head`` where ``head`` dominates
``tail``.  The natural loop of a header is the union, over its back
edges, of the nodes that reach the tail without passing through the
header.  Loops sharing a header are merged.  The forest records, per
loop: body, back edges, exit edges, nesting parent and depth — exactly
the "natural loop analysis" the paper performs before classifying
branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .dominators import DominatorTree
from .graph import CFG


@dataclass
class Loop:
    """One natural loop."""

    header: str
    body: Set[str] = field(default_factory=set)
    back_edges: List[Tuple[str, str]] = field(default_factory=list)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)
    depth: int = 1

    def __contains__(self, label: str) -> bool:
        return label in self.body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Loop(header={self.header!r}, |body|={len(self.body)})"


class LoopForest:
    """All natural loops of a function, with nesting structure."""

    def __init__(self, cfg: CFG, domtree: Optional[DominatorTree] = None) -> None:
        self.cfg = cfg
        self.domtree = domtree or DominatorTree(cfg)
        self.loops: List[Loop] = _find_loops(cfg, self.domtree)
        self._by_header: Dict[str, Loop] = {l.header: l for l in self.loops}
        _build_nesting(self.loops)
        # Innermost loop per block.
        self._innermost: Dict[str, Loop] = {}
        for loop in sorted(self.loops, key=lambda l: l.depth):
            for label in loop.body:
                self._innermost[label] = loop

    def loop_of(self, label: str) -> Optional[Loop]:
        """Innermost loop containing *label*, or None."""
        return self._innermost.get(label)

    def loop_with_header(self, header: str) -> Optional[Loop]:
        return self._by_header.get(header)

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)


def _find_loops(cfg: CFG, domtree: DominatorTree) -> List[Loop]:
    reachable = set(domtree.depth)
    loops_by_header: Dict[str, Loop] = {}
    for tail, head in cfg.edges():
        if tail not in reachable or head not in reachable:
            continue
        if not domtree.dominates(head, tail):
            continue
        loop = loops_by_header.get(head)
        if loop is None:
            loop = Loop(head, {head})
            loops_by_header[head] = loop
        loop.back_edges.append((tail, head))
        # Backward walk from the tail, stopping at the header.
        stack = [tail]
        while stack:
            label = stack.pop()
            if label in loop.body:
                continue
            loop.body.add(label)
            stack.extend(p for p in cfg.preds[label] if p in reachable)
    return list(loops_by_header.values())


def _build_nesting(loops: List[Loop]) -> None:
    """Set parent/children/depth.  The parent of L is the smallest loop
    strictly containing L's header that is not L itself."""
    for loop in loops:
        best: Optional[Loop] = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.body and loop.body <= other.body:
                if best is None or len(other.body) < len(best.body):
                    best = other
        loop.parent = best
        if best is not None:
            best.children.append(loop)
    # Depths: roots are depth 1.
    def set_depth(loop: Loop, depth: int) -> None:
        loop.depth = depth
        for child in loop.children:
            set_depth(child, depth + 1)

    for loop in loops:
        if loop.parent is None:
            set_depth(loop, 1)
