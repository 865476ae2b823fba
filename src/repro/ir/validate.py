"""Structural validation of IR programs.

``validate_program`` checks the invariants the rest of the system
relies on; transforms call it after rewriting to catch bugs early:

* every block has a terminator;
* every branch/jump target names an existing block;
* every called function exists and is called with the right arity;
* the entry block exists;
* every register used is defined somewhere in the function (a cheap
  over-approximation of def-before-use) or is a parameter.

The check reads each distinct instruction object once: replicated
blocks share their instructions, so a function grown by replication
costs little more to check than its original.  Only a program that
fails is walked block by block, to word every error in block order.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import List, Set

from .blocks import Function, Program
from .instructions import Branch, Call, Instr, Jump


class ValidationError(Exception):
    """Raised when a program violates an IR invariant."""


def validate_program(program: Program) -> None:
    """Raise :class:`ValidationError` if *program* is malformed."""
    functions = program.functions
    if program.main not in functions or not all(
        _is_valid(program, function) for function in functions.values()
    ):
        raise ValidationError("; ".join(_errors(program)))


def _validate_function(program: Program, function: Function) -> None:
    """Raise :class:`ValidationError` if *function* is malformed.

    Only *function* is checked: the caller vouches that the rest of
    *program*, the name of its entry function included, passed
    :func:`validate_program` and has not changed since.  It then raises
    exactly what that would.
    """
    if not _is_valid(program, function):
        raise ValidationError("; ".join(_errors(program)))


_terminator = attrgetter("terminator")
_instrs = attrgetter("instrs")


def _is_valid(program: Program, function: Function) -> bool:
    """Whether *function* meets every invariant.

    Jumps and branches, which replication gives every copy of its own,
    are checked inline; every other instruction object is read once."""
    blocks = function.blocks
    if function.entry not in blocks:
        return False
    targets: Set[str] = set()
    operands = set()
    distinct = {}
    for terminator in map(_terminator, blocks.values()):
        cls = terminator.__class__
        if cls is Branch:
            targets.add(terminator.taken)
            targets.add(terminator.not_taken)
            operands.add(terminator.lhs)
            operands.add(terminator.rhs)
        elif cls is Jump:
            targets.add(terminator.target)
        elif terminator is None:
            return False
        else:
            targets.update(terminator.targets())
            distinct[id(terminator)] = terminator
    if not targets <= blocks.keys():
        return False
    instrs = list(chain.from_iterable(map(_instrs, blocks.values())))
    distinct.update(zip(map(id, instrs), instrs))
    defined: Set[str] = set(function.params)
    used = {operand for operand in operands if isinstance(operand, str)}
    functions = program.functions
    for instr in distinct.values():
        if isinstance(instr, Call):
            callee = functions.get(instr.func)
            if callee is None or len(callee.params) != len(instr.args):
                return False
        defined.update(instr.defs())
        used.update(instr.uses())
    return used <= defined


def _errors(program: Program) -> List[str]:
    """Every invariant *program* violates, worded, in block order."""
    errors: List[str] = []
    if program.main not in program.functions:
        errors.append(f"missing entry function {program.main!r}")
    for function in program:
        _function_errors(program, function, errors)
    return errors


def _function_errors(program: Program, function: Function, errors: List[str]) -> None:
    where = f"function {function.name!r}"
    if function.entry is None or function.entry not in function.blocks:
        errors.append(f"{where}: missing entry block")
        return
    defined: Set[str] = set(function.params)
    for block in function:
        if block.terminator is None:
            errors.append(f"{where}: block {block.label!r} has no terminator")
            continue
        for instr in list(block.instrs) + [block.terminator]:
            defined.update(instr.defs())
        for target in block.terminator.targets():
            if target not in function.blocks:
                errors.append(
                    f"{where}: block {block.label!r} targets unknown "
                    f"block {target!r}"
                )
    for block in function:
        instrs: List[Instr] = list(block.instrs)
        if block.terminator is not None:
            instrs.append(block.terminator)
        for instr in instrs:
            for reg in instr.uses():
                if reg not in defined:
                    errors.append(
                        f"{where}: block {block.label!r} uses undefined "
                        f"register {reg!r}"
                    )
            if isinstance(instr, Call):
                callee = program.functions.get(instr.func)
                if callee is None:
                    errors.append(f"{where}: call to unknown function {instr.func!r}")
                elif len(callee.params) != len(instr.args):
                    errors.append(
                        f"{where}: call to {instr.func!r} with "
                        f"{len(instr.args)} args, expected {len(callee.params)}"
                    )
