"""Instruction set of the small register-transfer IR.

The IR is deliberately close to the assembly level the paper's tools
operate on: an unbounded set of virtual registers, integer arithmetic,
a flat byte-less word memory, calls, and *compare-and-branch*
terminators that carry their comparison opcode (needed by the
Ball/Larus opcode heuristic and by the replication planner).

Operands are either a register name (``str``) or an immediate integer
(``int``).  All instructions are immutable dataclasses; program
transformations build new instances (see :func:`retarget`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple, Union

Operand = Union[str, int]

#: Binary ALU operations understood by the interpreter.
BINOPS = (
    "add", "sub", "mul", "div", "mod",
    "and", "or", "xor", "shl", "shr",
    "min", "max",
)

#: Unary ALU operations.
UNOPS = ("neg", "not", "abs")

#: Comparison opcodes a conditional branch may carry.
CMPOPS = ("eq", "ne", "lt", "le", "gt", "ge")

#: Negation table for comparison opcodes (used to flip branch polarity).
CMP_NEGATE = {"eq": "ne", "ne": "eq", "lt": "ge", "le": "gt", "gt": "le", "ge": "lt"}


class IRError(Exception):
    """Raised for malformed IR constructs."""


def is_reg(operand: Operand) -> bool:
    """Return True if *operand* names a register (vs an immediate)."""
    return isinstance(operand, str)


@dataclass(frozen=True)
class Instr:
    """Base class for all instructions."""

    def uses(self) -> Tuple[str, ...]:
        """Registers read by this instruction."""
        return ()

    def defs(self) -> Tuple[str, ...]:
        """Registers written by this instruction."""
        return ()


def _regs(*operands: Operand) -> Tuple[str, ...]:
    return tuple(op for op in operands if isinstance(op, str))


@dataclass(frozen=True)
class Const(Instr):
    """``dest = value`` — load an immediate into a register."""

    dest: str
    value: int

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class Move(Instr):
    """``dest = src`` — register/immediate copy."""

    dest: str
    src: Operand

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.src)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class BinOp(Instr):
    """``dest = lhs <op> rhs`` for ``op`` in :data:`BINOPS`."""

    dest: str
    op: str
    lhs: Operand
    rhs: Operand

    def __post_init__(self) -> None:
        if self.op not in BINOPS:
            raise IRError(f"unknown binary op {self.op!r}")

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.lhs, self.rhs)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class UnOp(Instr):
    """``dest = <op> src`` for ``op`` in :data:`UNOPS`."""

    dest: str
    op: str
    src: Operand

    def __post_init__(self) -> None:
        if self.op not in UNOPS:
            raise IRError(f"unknown unary op {self.op!r}")

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.src)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class Cmp(Instr):
    """``dest = lhs <op> rhs`` producing 0/1, ``op`` in :data:`CMPOPS`."""

    dest: str
    op: str
    lhs: Operand
    rhs: Operand

    def __post_init__(self) -> None:
        if self.op not in CMPOPS:
            raise IRError(f"unknown comparison op {self.op!r}")

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.lhs, self.rhs)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class Load(Instr):
    """``dest = mem[addr + offset]`` — uninitialised cells read as 0."""

    dest: str
    addr: Operand
    offset: int = 0

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.addr)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class Store(Instr):
    """``mem[addr + offset] = value``."""

    addr: Operand
    value: Operand
    offset: int = 0

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.addr, self.value)


@dataclass(frozen=True)
class Alloc(Instr):
    """``dest = bump-allocate(size)`` — returns base address of a fresh
    zero-initialised region of *size* words."""

    dest: str
    size: Operand

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.size)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class Call(Instr):
    """``dest = func(args...)`` — *dest* may be None for void calls."""

    dest: Optional[str]
    func: str
    args: Tuple[Operand, ...] = ()

    def uses(self) -> Tuple[str, ...]:
        return _regs(*self.args)

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,) if self.dest is not None else ()


@dataclass(frozen=True)
class In(Instr):
    """``dest = next input word`` — reads the machine's input stream.

    Reading past the end of the stream traps (the workload generators
    always provide enough input).
    """

    dest: str

    def defs(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class Out(Instr):
    """Append *value* to the machine's output stream."""

    value: Operand

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.value)


# --------------------------------------------------------------------------
# Terminators
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Terminator(Instr):
    """Base class for block terminators."""

    def targets(self) -> Tuple[str, ...]:
        """Successor block labels, in order."""
        return ()


@dataclass(frozen=True)
class Jump(Terminator):
    """Unconditional jump."""

    target: str

    def targets(self) -> Tuple[str, ...]:
        return (self.target,)


@dataclass(frozen=True)
class Branch(Terminator):
    """Conditional compare-and-branch.

    The branch is *taken* (control moves to :attr:`taken`) when
    ``lhs <op> rhs`` holds, otherwise it falls through to
    :attr:`not_taken`.

    Attributes beyond the comparison carry compiler metadata:

    * ``pointer`` — the operands are addresses (Ball/Larus *pointer*
      heuristic).
    * ``predict`` — semi-static prediction planted by an optimiser:
      ``True`` = predict taken, ``False`` = predict not taken,
      ``None`` = unannotated.
    """

    op: str
    lhs: Operand
    rhs: Operand
    taken: str
    not_taken: str
    pointer: bool = False
    predict: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.op not in CMPOPS:
            raise IRError(f"unknown comparison op {self.op!r}")

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.lhs, self.rhs)

    def targets(self) -> Tuple[str, ...]:
        return (self.taken, self.not_taken)

    def negated(self) -> "Branch":
        """Return the equivalent branch with flipped polarity."""
        return dataclasses.replace(
            self,
            op=CMP_NEGATE[self.op],
            taken=self.not_taken,
            not_taken=self.taken,
            predict=None if self.predict is None else not self.predict,
        )


@dataclass(frozen=True)
class Return(Terminator):
    """Return from the current function (optionally with a value)."""

    value: Optional[Operand] = None

    def uses(self) -> Tuple[str, ...]:
        return _regs(self.value) if self.value is not None else ()


def retarget(term: Terminator, mapping) -> Terminator:
    """Return *term* with successor labels rewritten through *mapping*.

    *mapping* is a callable ``old_label -> new_label``; labels it leaves
    unchanged are kept.  Used by the code-replication transform.
    """
    # Direct construction: replication retargets tens of thousands of
    # terminators, and dataclasses.replace introspects on every call.
    # Every field is copied; keep this in step with the classes.
    if isinstance(term, Jump):
        return Jump(mapping(term.target))
    if isinstance(term, Branch):
        return Branch(
            term.op,
            term.lhs,
            term.rhs,
            mapping(term.taken),
            mapping(term.not_taken),
            term.pointer,
            term.predict,
        )
    return term
