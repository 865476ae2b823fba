"""Basic blocks, functions and whole programs.

A :class:`BasicBlock` is a straight-line list of instructions closed by
exactly one terminator.  A :class:`Function` owns an ordered mapping of
labels to blocks plus an entry label; a :class:`Program` owns functions
and names its entry function (``main`` by default).

Blocks and functions are *mutable* — the replication transform edits
them in place — but individual instructions are immutable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .instructions import Branch, Instr, IRError, Terminator


class BasicBlock:
    """A labelled straight-line code sequence with one terminator.

    ``origin`` is the label of the original block this one copies (its
    own label for a block that is not a copy).  :meth:`copy` carries it
    over, so a copy of a copy still names the first original.  It is
    bookkeeping for the replication transforms only: never printed.
    """

    __slots__ = ("label", "instrs", "terminator", "origin")

    def __init__(
        self,
        label: str,
        instrs: Optional[Iterable[Instr]] = None,
        terminator: Optional[Terminator] = None,
    ) -> None:
        self.label = label
        self.instrs: List[Instr] = list(instrs or [])
        self.terminator: Optional[Terminator] = terminator
        self.origin = label

    @property
    def branch(self) -> Optional[Branch]:
        """The conditional branch closing this block, if any."""
        return self.terminator if isinstance(self.terminator, Branch) else None

    def successors(self) -> Tuple[str, ...]:
        """Labels of successor blocks (empty for returns)."""
        if self.terminator is None:
            raise IRError(f"block {self.label!r} has no terminator")
        return self.terminator.targets()

    def size(self) -> int:
        """Static size of the block in instructions (incl. terminator)."""
        return len(self.instrs) + (1 if self.terminator is not None else 0)

    def copy(self, label: Optional[str] = None) -> "BasicBlock":
        """Clone this block, optionally under a new label."""
        clone = BasicBlock(label or self.label, list(self.instrs), self.terminator)
        clone.origin = self.origin
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock({self.label!r}, {len(self.instrs)} instrs)"


class Function:
    """A function: parameters, an entry label, and labelled blocks."""

    def __init__(
        self,
        name: str,
        params: Optional[Iterable[str]] = None,
        entry: Optional[str] = None,
    ) -> None:
        self.name = name
        self.params: List[str] = list(params or [])
        self.entry: Optional[str] = entry
        self.blocks: Dict[str, BasicBlock] = {}

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Insert *block*; the first block added becomes the entry."""
        if block.label in self.blocks:
            raise IRError(f"duplicate block label {block.label!r} in {self.name}")
        self.blocks[block.label] = block
        if self.entry is None:
            self.entry = block.label
        return block

    def block(self, label: str) -> BasicBlock:
        """Look up a block by label."""
        try:
            return self.blocks[label]
        except KeyError:
            raise IRError(f"no block {label!r} in function {self.name}") from None

    def remove_block(self, label: str) -> None:
        """Delete a block (callers must ensure it is unreferenced)."""
        if label == self.entry:
            raise IRError(f"cannot remove entry block {label!r}")
        del self.blocks[label]

    def entry_block(self) -> BasicBlock:
        if self.entry is None:
            raise IRError(f"function {self.name} has no entry block")
        return self.blocks[self.entry]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def size(self) -> int:
        """Static size in instructions."""
        return sum(block.size() for block in self)

    def branch_blocks(self) -> List[BasicBlock]:
        """Blocks terminated by a conditional branch."""
        return [block for block in self if block.branch is not None]

    def fresh_label(self, base: str) -> str:
        """Return a label not yet used in this function, derived from *base*."""
        if base not in self.blocks:
            return base
        index = 1
        while f"{base}.{index}" in self.blocks:
            index += 1
        return f"{base}.{index}"

    def copy(self) -> "Function":
        """Deep-enough clone (blocks cloned, instructions shared)."""
        clone = Function(self.name, self.params, self.entry)
        for block in self:
            clone.blocks[block.label] = block.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Function({self.name!r}, {len(self.blocks)} blocks)"


class Program:
    """A whole program: a set of functions and an entry function name."""

    def __init__(self, main: str = "main") -> None:
        self.main = main
        self.functions: Dict[str, Function] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function {name!r}") from None

    def main_function(self) -> Function:
        return self.function(self.main)

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def size(self) -> int:
        """Static program size in instructions."""
        return sum(function.size() for function in self)

    def copy(self) -> "Program":
        clone = Program(self.main)
        for function in self:
            clone.functions[function.name] = function.copy()
        return clone

    def branch_sites(self) -> List["BranchSite"]:
        """All conditional-branch sites in the program, in a stable order."""
        sites = []
        for function in self:
            for block in function:
                if block.branch is not None:
                    sites.append(BranchSite(function.name, block.label))
        return sites

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Program({list(self.functions)!r})"


class BranchSite(tuple):
    """Identifies a static conditional branch: (function name, block label).

    A block has at most one terminator, so the pair is unique.  Being a
    tuple subclass keeps sites hashable, orderable and cheap.
    """

    __slots__ = ()

    def __new__(cls, function: str, block: str) -> "BranchSite":
        return super().__new__(cls, (function, block))

    @property
    def function(self) -> str:
        return self[0]

    @property
    def block(self) -> str:
        return self[1]

    def __repr__(self) -> str:
        return f"BranchSite({self[0]!r}, {self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"
