"""Parser for the textual IR format produced by :mod:`repro.ir.printer`.

The grammar is line oriented:

* ``func NAME(p1, p2) {`` opens a function, ``}`` closes it;
* ``LABEL:`` opens a basic block (labels may hold the characters
  replication puts in the names of copies, see ``_LABEL_RE``);
* every other non-empty line is one instruction;
* ``#`` and ``;`` start comments that run to end of line.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .blocks import BasicBlock, Function, Program
from .instructions import (
    Alloc,
    BinOp,
    BINOPS,
    Branch,
    Call,
    Cmp,
    CMPOPS,
    Const,
    In,
    Jump,
    Load,
    Move,
    Operand,
    Out,
    Return,
    Store,
    UnOp,
    UNOPS,
)


class ParseError(Exception):
    """Raised on malformed IR text, with a line number."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


_FUNC_RE = re.compile(r"^func\s+(\w[\w.]*)\s*\(([^)]*)\)\s*\{$")
#: A label's first character is a word character; the transforms name
#: copies ``<label>~<n>`` (tail duplication) and ``<label>@<state>.<n>``
#: (loop replication), and state names hold ``^`` (loop-exit chains),
#: ``{``, ``,`` and ``}`` (merged states) or ``*`` (a one-state machine).
_LABEL_RE = re.compile(r"^(\w[\w.@|~^{},*]*)\s*:$")
_ASSIGN_RE = re.compile(r"^(\w[\w.]*)\s*=\s*(.+)$")
_CALL_RE = re.compile(r"^call\s+(\w[\w.]*)\s*\(([^)]*)\)$")
_BRANCH_RE = re.compile(
    r"^(br(?:\.ptr)?(?:\.[tn])?)\s+(\w+)\s+(\S+)\s*,\s*(\S+)"
    r"\s*\?\s*(\S+)\s*:\s*(\S+)$"
)
_IDENT_RE = re.compile(r"^\w[\w.@|~]*$")


def _operand(token: str, line_number: int) -> Operand:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        pass
    if _IDENT_RE.match(token):
        return token
    raise ParseError(f"bad operand {token!r}", line_number)


def _operands(text: str, line_number: int, count: int) -> List[Operand]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ParseError(f"expected {count} operands in {text!r}", line_number)
    return [_operand(p, line_number) for p in parts]


def _strip_comment(line: str) -> str:
    for marker in ("#", ";"):
        index = line.find(marker)
        if index >= 0:
            line = line[:index]
    return line.strip()


def _parse_rhs(dest: str, rhs: str, line_number: int):
    """Parse the right-hand side of an assignment instruction."""
    call_match = _CALL_RE.match(rhs)
    if call_match:
        func, argtext = call_match.groups()
        args = tuple(
            _operand(a, line_number) for a in argtext.split(",") if a.strip()
        )
        return Call(dest, func, args)
    parts = rhs.split(None, 1)
    keyword = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if keyword == "const":
        return Const(dest, int(rest.strip(), 0))
    if keyword == "move":
        return Move(dest, _operand(rest, line_number))
    if keyword == "in":
        if rest:
            raise ParseError("'in' takes no operands", line_number)
        return In(dest)
    if keyword == "load":
        addr, offset = _operands(rest, line_number, 2)
        if not isinstance(offset, int):
            raise ParseError("load offset must be an immediate", line_number)
        return Load(dest, addr, offset)
    if keyword == "alloc":
        return Alloc(dest, _operand(rest, line_number))
    if keyword == "cmp":
        opparts = rest.split(None, 1)
        if len(opparts) != 2 or opparts[0] not in CMPOPS:
            raise ParseError(f"bad cmp {rest!r}", line_number)
        lhs, rhs_op = _operands(opparts[1], line_number, 2)
        return Cmp(dest, opparts[0], lhs, rhs_op)
    if keyword in BINOPS:
        lhs, rhs_op = _operands(rest, line_number, 2)
        return BinOp(dest, keyword, lhs, rhs_op)
    if keyword in UNOPS:
        return UnOp(dest, keyword, _operand(rest, line_number))
    raise ParseError(f"unknown instruction {keyword!r}", line_number)


def _parse_instruction(text: str, line_number: int):
    """Parse one instruction line into an Instr."""
    branch_match = _BRANCH_RE.match(text)
    if branch_match:
        mnemonic, op, lhs, rhs, taken, not_taken = branch_match.groups()
        if op not in CMPOPS:
            raise ParseError(f"bad branch op {op!r}", line_number)
        modifiers = mnemonic.split(".")[1:]
        predict = None
        if "t" in modifiers:
            predict = True
        elif "n" in modifiers:
            predict = False
        return Branch(
            op,
            _operand(lhs, line_number),
            _operand(rhs, line_number),
            taken,
            not_taken,
            pointer="ptr" in modifiers,
            predict=predict,
        )
    assign_match = _ASSIGN_RE.match(text)
    if assign_match:
        dest, rhs = assign_match.groups()
        return _parse_rhs(dest, rhs.strip(), line_number)
    parts = text.split(None, 1)
    keyword = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if keyword == "jump":
        return Jump(rest.strip())
    if keyword == "ret":
        if not rest:
            return Return(None)
        return Return(_operand(rest, line_number))
    if keyword == "out":
        return Out(_operand(rest, line_number))
    if keyword == "store":
        addr, value, offset = _operands(rest, line_number, 3)
        if not isinstance(offset, int):
            raise ParseError("store offset must be an immediate", line_number)
        return Store(addr, value, offset)
    if keyword == "call":
        call_match = _CALL_RE.match(text)
        if call_match:
            func, argtext = call_match.groups()
            args = tuple(
                _operand(a, line_number) for a in argtext.split(",") if a.strip()
            )
            return Call(None, func, args)
    raise ParseError(f"cannot parse {text!r}", line_number)


def parse_program(text: str, main: str = "main") -> Program:
    """Parse a full program from its textual form."""
    program = Program(main)
    function: Optional[Function] = None
    block: Optional[BasicBlock] = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        func_match = _FUNC_RE.match(line)
        if func_match:
            if function is not None:
                raise ParseError("nested function", line_number)
            name, paramtext = func_match.groups()
            params = [p.strip() for p in paramtext.split(",") if p.strip()]
            function = Function(name, params)
            block = None
            continue
        if line == "}":
            if function is None:
                raise ParseError("'}' outside function", line_number)
            program.add_function(function)
            function = None
            block = None
            continue
        if function is None:
            raise ParseError(f"statement outside function: {line!r}", line_number)
        label_match = _LABEL_RE.match(line)
        if label_match:
            new_block = BasicBlock(label_match.group(1))
            # A block without an explicit terminator falls through.
            if block is not None and block.terminator is None:
                block.terminator = Jump(new_block.label)
            block = new_block
            function.add_block(block)
            continue
        if block is None:
            raise ParseError("instruction before first label", line_number)
        if block.terminator is not None:
            raise ParseError(
                f"instruction after terminator in block {block.label!r}",
                line_number,
            )
        instr = _parse_instruction(line, line_number)
        if isinstance(instr, (Jump, Branch, Return)):
            block.terminator = instr
        else:
            block.instrs.append(instr)
    if function is not None:
        raise ParseError("unterminated function at end of input", 0)
    return program


def parse_function(text: str) -> Function:
    """Parse a single function definition."""
    program = parse_program(text, main="__unused__")
    functions = list(program)
    if len(functions) != 1:
        raise ParseError("expected exactly one function", 0)
    return functions[0]
