"""Dominator analysis (Cooper–Harvey–Kennedy).

Computes immediate dominators over the reachable part of a CFG using
the simple-and-fast iterative algorithm, and wraps them in a
:class:`DominatorTree` with O(depth) dominance queries — all the loop
analysis needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .graph import CFG


class DominatorTree:
    """Immediate-dominator tree for the reachable blocks of a CFG."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.idom: Dict[str, Optional[str]] = _compute_idoms(cfg)
        self.children: Dict[str, List[str]] = {label: [] for label in self.idom}
        for label, parent in self.idom.items():
            if parent is not None and parent != label:
                self.children[parent].append(label)
        self.depth: Dict[str, int] = {}
        self._compute_depths()

    def _compute_depths(self) -> None:
        self.depth[self.cfg.entry] = 0
        stack = [self.cfg.entry]
        while stack:
            label = stack.pop()
            for child in self.children[label]:
                self.depth[child] = self.depth[label] + 1
                stack.append(child)

    def dominates(self, a: str, b: str) -> bool:
        """True iff *a* dominates *b* (reflexively)."""
        while b is not None and self.depth.get(b, -1) > self.depth.get(a, -1):
            b = self.idom[b]  # type: ignore[assignment]
        return a == b



def _compute_idoms(cfg: CFG) -> Dict[str, Optional[str]]:
    """Cooper–Harvey–Kennedy iterative dominator computation."""
    rpo = cfg.reverse_postorder()
    index = {label: i for i, label in enumerate(rpo)}
    idom: Dict[str, Optional[str]] = {cfg.entry: cfg.entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == cfg.entry:
                continue
            processed = [
                p for p in cfg.preds[label] if p in index and idom.get(p) is not None
            ]
            if not processed:
                continue
            new_idom = processed[0]
            for pred in processed[1:]:
                new_idom = intersect(pred, new_idom)
            if idom.get(label) != new_idom:
                idom[label] = new_idom
                changed = True
    return idom
