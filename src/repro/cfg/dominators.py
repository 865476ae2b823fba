"""Dominator analysis (Cooper–Harvey–Kennedy).

Computes immediate dominators over the reachable part of a CFG using
the simple-and-fast iterative algorithm, and wraps them in a
:class:`DominatorTree` with constant-time dominance queries — all the
loop analysis needs.
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
        """Depths, and a preorder numbering with subtree sizes, which
        answers a dominance query in constant time."""
        self.depth[self.cfg.entry] = 0
        preorder = []
        stack = [self.cfg.entry]
        while stack:
            label = stack.pop()
            preorder.append(label)
            depth = self.depth[label] + 1
            for child in self.children[label]:
                self.depth[child] = depth
                stack.append(child)
        self._number = {label: index for index, label in enumerate(preorder)}
        self._extent = dict.fromkeys(preorder, 1)
        for label in reversed(preorder[1:]):
            self._extent[self.idom[label]] += self._extent[label]

    def dominates(self, a: str, b: str) -> bool:
        """True iff *a* dominates *b* (reflexively)."""
        first = self._number.get(a)
        index = self._number.get(b)
        if first is None or index is None:
            return a == b
        return first <= index < first + self._extent[a]


def _compute_idoms(cfg: CFG) -> Dict[str, Optional[str]]:
    """Cooper–Harvey–Kennedy iterative dominator computation, over
    reverse-postorder numbers."""
    rpo = cfg.reverse_postorder()
    index = {label: i for i, label in enumerate(rpo)}
    preds = [
        [index[p] for p in cfg.preds[label] if p in index] for label in rpo
    ]
    idom = [-1] * len(rpo)
    idom[0] = 0  # the entry

    changed = True
    while changed:
        changed = False
        for node in range(1, len(rpo)):
            new_idom = -1
            for pred in preds[node]:
                if idom[pred] < 0:
                    continue
                if new_idom < 0:
                    new_idom = pred
                    continue
                a, b = pred, new_idom
                while a != b:
                    while a > b:
                        a = idom[a]
                    while b > a:
                        b = idom[b]
                new_idom = a
            if new_idom >= 0 and idom[node] != new_idom:
                idom[node] = new_idom
                changed = True
    return {rpo[node]: rpo[parent] for node, parent in enumerate(idom) if parent >= 0}
