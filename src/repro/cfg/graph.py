"""Control-flow graphs over IR functions.

A :class:`CFG` holds a function's block-level flow: successor and
predecessor maps plus the traversal orders the dominator and loop
analyses need.  Predecessor lists are in block-layout order, with a
source listed once per edge, exactly as :meth:`CFG.from_function`
builds them.

A CFG built by :meth:`CFG.from_function` stays bound to its function
and can be kept current through a transform instead of being rebuilt:
:meth:`CFG.reserve` claims a fresh label (in the function's layout
too), :meth:`CFG.sync` re-reads the terminators the transform wrote,
and :meth:`CFG.remove_unreachable` drops the blocks the edit cut off,
from both the function and the graph.  :attr:`CFG.size` tracks the
function's static size through those edits.  Edits made to the function
any other way leave the CFG stale; build a new one then.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir import Function, IRError


class CFG:
    """Successor/predecessor maps for one function."""

    # Editing state; _editing sets it up on the first edit, so building
    # a CFG only to analyse it costs nothing extra.
    _order: Optional[Dict[str, int]] = None

    def __init__(
        self,
        entry: str,
        succs: Dict[str, Tuple[str, ...]],
        function: Optional[Function] = None,
    ) -> None:
        self.entry = entry
        self.succs = succs
        #: the function this graph mirrors; editing needs it
        self.function = function
        self.preds: Dict[str, List[str]] = {label: [] for label in succs}
        for label, targets in succs.items():
            for target in targets:
                try:
                    self.preds[target].append(label)
                except KeyError:
                    raise _dangling(label, target) from None

    @classmethod
    def from_function(cls, function: Function) -> "CFG":
        """Build the CFG of *function* (all blocks, reachable or not)."""
        succs = {block.label: block.successors() for block in function}
        return cls(function.entry, succs, function)

    def nodes(self) -> Iterable[str]:
        return self.succs.keys()

    def __len__(self) -> int:
        return len(self.succs)

    def __contains__(self, label: str) -> bool:
        return label in self.succs

    def reachable(self) -> Set[str]:
        """Labels reachable from the entry."""
        succs = self.succs
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for target in succs[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    def postorder(self) -> List[str]:
        """Postorder over reachable nodes (iterative DFS)."""
        order: List[str] = []
        seen: Set[str] = set()
        # Stack of (label, iterator over successors).
        stack: List[Tuple[str, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            label, index = stack[-1]
            targets = self.succs[label]
            if index < len(targets):
                stack[-1] = (label, index + 1)
                target = targets[index]
                if target not in seen:
                    seen.add(target)
                    stack.append((target, 0))
            else:
                stack.pop()
                order.append(label)
        return order

    def reverse_postorder(self) -> List[str]:
        """Reverse postorder — the order forward dataflow analyses want."""
        order = self.postorder()
        order.reverse()
        return order

    def edges(self) -> List[Tuple[str, str]]:
        """All edges as (source, target) pairs."""
        return [
            (label, target)
            for label, targets in self.succs.items()
            for target in targets
        ]

    # -- editing --------------------------------------------------------------

    def _editing(self) -> Dict[str, int]:
        """Layout positions, set up on the first edit."""
        if self._order is None:
            if self.function is None:
                raise IRError("only a CFG built from a function can be edited")
            self._order = {label: index for index, label in enumerate(self.succs)}
            self._next_position = len(self._order)
            self._size = self.function.size()
            #: labels reserved since the last remove_unreachable
            self._added: List[str] = []
        return self._order

    @property
    def size(self) -> int:
        """Static size of the function in instructions.

        Kept as a running total through edits; new blocks are counted
        when :meth:`remove_unreachable` closes the edit.
        """
        self._editing()
        return self._size

    def reserve(self, label: str) -> None:
        """Claim *label* for a new block at the end of the layout; the
        caller stores the block under it and then syncs it."""
        order = self._editing()
        self.function.blocks[label] = None  # type: ignore[assignment]
        order[label] = self._next_position
        self._next_position += 1
        self.succs[label] = ()
        self.preds[label] = []
        self._added.append(label)

    def set_entry(self, label: str) -> None:
        """Make *label* the function's entry block."""
        self.entry = self.function.entry = label

    def sync(self, labels: Iterable[str]) -> None:
        """Re-read the successors of *labels* from their terminators.

        Only terminator targets may have changed: a block's size is
        counted once, when it is added.
        """
        order = self._editing()
        blocks = self.function.blocks
        succs = self.succs
        preds = self.preds
        for label in labels:
            targets = blocks[label].successors()
            old = succs[label]
            if targets == old:
                continue
            added = list(targets)
            for target in old:
                if target in added:
                    added.remove(target)
                else:
                    preds[target].remove(label)
            position = order[label]
            for target in added:
                sources = preds.get(target)
                if sources is None:
                    raise _dangling(label, target)
                index = len(sources)
                while index and order[sources[index - 1]] > position:
                    index -= 1
                sources.insert(index, label)
            succs[label] = targets

    def remove_unreachable(self) -> List[str]:
        """Delete the blocks no longer reachable from the entry, from the
        function and from the graph; returns their labels in layout order."""
        order = self._editing()
        blocks = self.function.blocks
        added, self._added = self._added, []
        self._size += sum(blocks[label].size() for label in added)
        live = self.reachable()
        removed = [label for label in blocks if label not in live]
        gone = set(removed)
        for label in removed:
            self._size -= blocks[label].size()
            self.function.remove_block(label)
            for target in self.succs.pop(label):
                if target not in gone:
                    self.preds[target].remove(label)
            del self.preds[label]
            del order[label]
        return removed


def _dangling(source: str, target: str) -> IRError:
    return IRError(f"block {source!r} jumps to missing block {target!r}")


def remove_unreachable_blocks(function: Function) -> List[str]:
    """Delete blocks not reachable from the entry; returns removed labels.

    This is the paper's "since there is no path to them they have been
    discarded" step after replication (Figure 1: blocks 2b and 3a).
    """
    return CFG.from_function(function).remove_unreachable()
