"""Trace-producing interpreter for the IR.

:class:`Machine` executes a :class:`~repro.ir.Program` with an explicit
call stack (no host recursion), a flat word memory, deterministic input
and output streams, and a fuel limit.  Every executed conditional
branch is reported to an optional ``on_branch(site, taken)`` callback —
this is the instrumentation channel the paper's assembly-level tracing
tool provides, and everything downstream (profiles, predictors,
replication measurements) consumes only this event stream.

The interpreter is pre-decoded.  On first entry to a block in a run,
the block's instructions are split at ``call``s into straight-line
segments, and each segment is lowered to one Python function together
with the exit that closes it: the call's arguments, or the block's
branch comparison or return value.  The function is generated from
source in which register names and immediates appear only through
``repr()`` and opcodes only through the fixed tables below; registers
live in Python locals inside a segment and are written back to the
frame's register dict at its end.

Compiled segments are cached process-wide, keyed by content —
``(instructions, exit)`` — so the replicated copies of one loop body,
which differ only in their terminator targets, share one function.
:data:`MAX_COMPILED_SEGMENTS` bounds the cache; the oldest entries are
evicted first, so a long-lived service process cannot grow without
limit.

Fuel is charged per segment: its instructions plus the call or
terminator that ends it.  Only the one segment that would cross
``max_steps`` runs instruction by instruction, so :class:`FuelExhausted`
fires at exactly the step, and after exactly the side effects, of a
machine that charged every instruction on its own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir import (
    Alloc,
    BasicBlock,
    BinOp,
    Branch,
    BranchSite,
    Call,
    Cmp,
    Const,
    Function,
    In,
    Jump,
    Load,
    Move,
    Out,
    Program,
    Return,
    Store,
    UnOp,
)


class TrapError(Exception):
    """Runtime fault: division by zero, exhausted input, bad call, ..."""


class FuelExhausted(TrapError):
    """The step budget ran out before the program returned."""


@dataclass
class RunResult:
    """Outcome of one program execution."""

    value: Optional[int]
    output: List[int]
    steps: int
    branches: int

    def __iter__(self):  # convenience unpacking: value, output
        yield self.value
        yield self.output


# -- segment compiler ----------------------------------------------------------

#: Upper bound on the process-wide cache of compiled segments.
MAX_COMPILED_SEGMENTS = 4096

#: Python operator of each comparison opcode (``cmp`` and ``br``).
_CMP_OPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

#: Python expression of each binary opcode over operand expressions
#: ``{a}`` and ``{b}``.  Shift counts are masked to 6 bits; division
#: truncates toward zero, like the C programs the paper traces.
_BINOP_EXPRS = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "div": "_div({a}, {b})",
    "mod": "_mod({a}, {b})",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "{a} << ({b} & 63)",
    "shr": "{a} >> ({b} & 63)",
    "min": "{a} if {a} <= {b} else {b}",
    "max": "{a} if {a} >= {b} else {b}",
}

#: Python expression of each unary opcode over operand expression ``{a}``.
_UNOP_EXPRS = {"neg": "-{a}", "not": "~{a}", "abs": "{a} if {a} >= 0 else -{a}"}


def _div(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("modulo by zero")
    return a - b * _div(a, b)


_NAMESPACE = {"_div": _div, "_mod": _mod, "TrapError": TrapError}

_compiled: Dict[tuple, Callable] = {}
_compiled_lock = threading.Lock()


class _Lowering:
    """Source lines of one segment function; registers map to locals
    ``r0, r1, ...``, loaded from ``env`` just before their first read."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.locals: Dict[str, str] = {}
        self.written: Dict[str, str] = {}

    def local(self, register: str) -> str:
        name = self.locals.get(register)
        if name is None:
            name = self.locals[register] = f"r{len(self.locals)}"
        return name

    def read(self, operand) -> str:
        if type(operand) is not str:
            return f"({operand!r})"
        if operand not in self.locals:
            self.lines.append(f"{self.local(operand)} = env[{operand!r}]")
        return self.locals[operand]

    def assign(self, dest: str, expr: str) -> None:
        name = self.written[dest] = self.local(dest)
        self.lines.append(f"{name} = {expr}")

    def instr(self, instr) -> None:
        cls = instr.__class__
        if cls is BinOp:
            a, b = self.read(instr.lhs), self.read(instr.rhs)
            self.assign(instr.dest, _BINOP_EXPRS[instr.op].format(a=a, b=b))
        elif cls is Cmp:
            a, b = self.read(instr.lhs), self.read(instr.rhs)
            self.assign(instr.dest, f"1 if {a} {_CMP_OPS[instr.op]} {b} else 0")
        elif cls is UnOp:
            self.assign(instr.dest, _UNOP_EXPRS[instr.op].format(a=self.read(instr.src)))
        elif cls is Load:
            a = self.read(instr.addr)
            self.assign(instr.dest, f"memory.get({a} + ({instr.offset!r}), 0)")
        elif cls is Store:
            a, v = self.read(instr.addr), self.read(instr.value)
            self.lines.append(f"memory[{a} + ({instr.offset!r})] = {v}")
        elif cls is Const:
            self.assign(instr.dest, f"({instr.value!r})")
        elif cls is Move:
            self.assign(instr.dest, self.read(instr.src))
        elif cls is Alloc:
            self.assign(instr.dest, f"m.allocate({self.read(instr.size)})")
        elif cls is In:
            self.assign(instr.dest, "m._next_input()")
        elif cls is Out:
            self.lines.append(f"m.output.append({self.read(instr.value)})")
        else:
            message = f"cannot execute {instr!r}"
            self.lines.append(f"raise TrapError({message!r})")

    def exit(self, exit) -> str:
        """The returned expression: ``None``, a branch outcome (bool), a
        return value, or a call's argument tuple."""
        if exit is None:
            return "None"
        kind = exit[0]
        if kind == "br":
            _, op, lhs, rhs = exit
            a, b = self.read(lhs), self.read(rhs)
            return f"{a} {_CMP_OPS[op]} {b}"
        if kind == "ret":
            return "None" if exit[1] is None else self.read(exit[1])
        return "(" + "".join(f"{self.read(arg)}, " for arg in exit[1]) + ")"


def _compile(instrs: tuple, exit) -> Callable:
    lowering = _Lowering()
    for instr in instrs:
        lowering.instr(instr)
    result = lowering.exit(exit)
    body = lowering.lines
    body += [f"env[{register!r}] = {name}" for register, name in lowering.written.items()]
    body.append(f"return {result}")
    source = "def segment(env, memory, m):\n" + "".join(f"    {line}\n" for line in body)
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<repro.interp segment>", "exec"), namespace)
    return namespace["segment"]


def _segment(instrs: tuple, exit) -> Callable:
    """The compiled function ``(env, memory, machine) -> exit value`` of
    a straight-line segment, from the process-wide cache.

    *exit* is ``None``, ``("br", op, lhs, rhs)``, ``("ret", value)`` or
    ``("call", args)``.
    """
    key = (instrs, exit)
    function = _compiled.get(key)
    if function is None:
        function = _compile(instrs, exit)
        with _compiled_lock:
            while len(_compiled) >= MAX_COMPILED_SEGMENTS:
                del _compiled[next(iter(_compiled))]
            _compiled[key] = function
    return function


# -- decoded blocks -------------------------------------------------------------

_BRANCH, _JUMP, _RETURN, _BROKEN = range(4)


class _CallSite:
    """A segment ending at a call, plus the call's resolved callee."""

    __slots__ = ("instrs", "run", "cost", "callee", "dest", "trap", "entry")

    def __init__(self, instrs: tuple, call: Call, program: Program) -> None:
        self.instrs = instrs
        self.cost = len(instrs) + 1
        self.dest = call.dest
        self.entry: Optional[_Block] = None
        callee = program.functions.get(call.func)
        self.trap: Optional[str] = None
        if callee is None:
            self.trap = f"call to unknown function {call.func!r}"
        elif len(call.args) != len(callee.params):
            self.trap = f"bad arity calling {call.func!r}"
        self.callee = None if self.trap else callee
        self.run = _segment(instrs, None if self.trap else ("call", tuple(call.args)))


class _Block:
    """A block decoded for one run: its call segments, its tail segment
    (closed by the terminator) and its successors, resolved lazily.
    ``next``, ``targets`` and ``edges`` are indexed by the branch
    outcome (``False``/``True``), or by 0 for a jump."""

    __slots__ = (
        "function", "label", "calls", "n_calls", "instrs", "run", "cost",
        "kind", "site", "targets", "edges", "next", "trap",
    )

    def __init__(self, function: Function, block: BasicBlock, program: Program) -> None:
        self.function = function
        self.label = block.label
        calls = []
        start = 0
        for index, instr in enumerate(block.instrs):
            if instr.__class__ is Call:
                calls.append(_CallSite(tuple(block.instrs[start:index]), instr, program))
                start = index + 1
        self.calls = tuple(calls)
        self.n_calls = len(calls)
        self.instrs = tuple(block.instrs[start:])
        self.cost = len(self.instrs) + 1
        self.site: Optional[BranchSite] = None
        self.targets: Tuple[str, ...] = ()
        self.trap: Optional[str] = None
        term = block.terminator
        cls = term.__class__
        exit = None
        if cls is Branch:
            self.kind = _BRANCH
            self.site = BranchSite(function.name, block.label)
            self.targets = (term.not_taken, term.taken)
            exit = ("br", term.op, term.lhs, term.rhs)
        elif cls is Jump:
            self.kind = _JUMP
            self.targets = (term.target,)
        elif cls is Return:
            self.kind = _RETURN
            exit = ("ret", term.value)
        else:
            self.kind = _BROKEN
            self.trap = f"block {block.label!r} has no terminator"
        self.run = _segment(self.instrs, exit)
        self.edges = tuple((function.name, block.label, target) for target in self.targets)
        self.next: List[Optional[_Block]] = [None] * len(self.targets)


def _undefined(block: _Block, error: KeyError) -> TrapError:
    return TrapError(
        f"{block.function.name}:{block.label}: read of undefined register {error.args[0]!r}"
    )


class Machine:
    """Executes IR programs and reports branch events.

    Parameters
    ----------
    program:
        The program to run.
    input_values:
        Words returned by successive ``in`` instructions.
    max_steps:
        Fuel limit in executed instructions; exceeding it raises
        :class:`FuelExhausted` (protects against runaway loops in
        randomly generated programs).
    on_branch:
        Optional callback ``(site: BranchSite, taken: bool) -> None``
        invoked for every executed conditional branch.
    track_history_bits:
        When positive, every call frame maintains the history of its
        own branches (frame-local path history, bit 0 = most recent
        outcome); just before each ``on_branch`` call the value *seen
        by that branch* is published as :attr:`path_history`.  This is
        what CFG-path replication can actually observe, as opposed to
        raw global history which crosses call boundaries.
    """

    def __init__(
        self,
        program: Program,
        input_values: Sequence[int] = (),
        max_steps: int = 50_000_000,
        on_branch: Optional[Callable[[BranchSite, bool], None]] = None,
        track_history_bits: int = 0,
        count_edges: bool = False,
        on_block: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.program = program
        self.input_values = list(input_values)
        self.max_steps = max_steps
        self.on_branch = on_branch
        self.track_history_bits = track_history_bits
        #: frame-local history at the most recent branch event
        self.path_history = 0
        self.count_edges = count_edges
        #: (function, source label, target label) -> executions; only
        #: populated when ``count_edges`` is set
        self.edge_counts: Dict[Tuple[str, str, str], int] = {}
        #: optional callback ``(function name, block label)`` invoked at
        #: every block entry (function entries and control transfers) —
        #: the instruction-fetch stream the i-cache model consumes
        self.on_block = on_block
        self.memory: Dict[int, int] = {}
        self.output: List[int] = []
        self._brk = 0x10000
        self._input_pos = 0

    # -- memory --------------------------------------------------------------

    def allocate(self, size: int) -> int:
        """Bump-allocate *size* zeroed words; returns the base address."""
        if size < 0:
            raise TrapError(f"alloc of negative size {size}")
        base = self._brk
        self._brk += size + 1  # one guard word between regions
        return base

    def poke(self, addr: int, value: int) -> None:
        """Write a memory word directly (used to preload workload data)."""
        self.memory[addr] = value

    def peek(self, addr: int) -> int:
        """Read a memory word directly."""
        return self.memory.get(addr, 0)

    def _next_input(self) -> int:
        """Consume the next word of the input stream (``in``)."""
        if self._input_pos >= len(self.input_values):
            raise TrapError("input exhausted")
        self._input_pos += 1
        return self.input_values[self._input_pos - 1]

    # -- execution -------------------------------------------------------------

    def run(self, *args: int) -> RunResult:
        """Run the entry function with *args* and return the result."""
        return self.call(self.program.main, list(args))

    def call(self, func_name: str, args: Sequence[int]) -> RunResult:
        """Run an arbitrary function by name."""
        function = self.program.function(func_name)
        if len(args) != len(function.params):
            raise TrapError(
                f"{func_name} expects {len(function.params)} args, got {len(args)}"
            )
        program = self.program
        decoded: Dict[int, _Block] = {}

        def decode(function: Function, block: BasicBlock) -> _Block:
            found = decoded.get(id(block))
            if found is None:
                found = decoded[id(block)] = _Block(function, block, program)
            return found

        env = dict(zip(function.params, args))
        block = decode(function, function.entry_block())
        on_block = self.on_block
        if on_block is not None:
            on_block(function.name, function.entry)
        # Saved caller frames: (env, block, next segment, result register,
        # branch history).
        stack: List[tuple] = []
        segment = 0
        history = 0
        steps = 0
        branches = 0
        memory = self.memory
        on_branch = self.on_branch
        bits = self.track_history_bits
        mask = (1 << bits) - 1 if bits > 0 else 0
        count_edges = self.count_edges
        edge_counts = self.edge_counts
        max_steps = self.max_steps

        while True:
            if segment < block.n_calls:
                site = block.calls[segment]
                if steps + site.cost > max_steps:
                    self._exhaust(block, site.instrs, max_steps - steps, env)
                steps += site.cost
                try:
                    argv = site.run(env, memory, self)
                except KeyError as error:
                    raise _undefined(block, error) from None
                callee = site.callee
                if callee is None:
                    raise TrapError(site.trap)
                stack.append((env, block, segment + 1, site.dest, history))
                env = dict(zip(callee.params, argv))
                block = site.entry
                if block is None:
                    block = site.entry = decode(callee, callee.entry_block())
                segment = 0
                history = 0
                if on_block is not None:
                    on_block(callee.name, callee.entry)
                continue

            if steps + block.cost > max_steps:
                self._exhaust(block, block.instrs, max_steps - steps, env)
            steps += block.cost
            try:
                result = block.run(env, memory, self)
            except KeyError as error:
                raise _undefined(block, error) from None
            kind = block.kind
            if kind is _BRANCH:
                branches += 1
                if bits > 0:
                    self.path_history = history
                    history = ((history << 1) | result) & mask
                if on_branch is not None:
                    on_branch(block.site, result)
                way = result
            elif kind is _JUMP:
                way = 0
            elif kind is _RETURN:
                if not stack:
                    return RunResult(result, self.output, steps, branches)
                env, block, segment, dest, history = stack.pop()
                if dest is not None:
                    if result is None:
                        raise TrapError(
                            f"void return but caller expects a value in {dest!r}"
                        )
                    env[dest] = result
                continue
            else:
                raise TrapError(block.trap)
            if count_edges:
                edge = block.edges[way]
                edge_counts[edge] = edge_counts.get(edge, 0) + 1
            if on_block is not None:
                on_block(block.function.name, block.targets[way])
            successor = block.next[way]
            if successor is None:
                owner = block.function
                successor = block.next[way] = decode(
                    owner, owner.blocks[block.targets[way]]
                )
            block = successor
            segment = 0

    def _exhaust(self, block: _Block, instrs: tuple, budget: int, env: Dict[str, int]) -> None:
        """Run the *budget* instructions of a segment that still fit in
        the fuel limit, one at a time, then raise :class:`FuelExhausted`."""
        for instr in instrs[: max(budget, 0)]:
            try:
                _segment((instr,), None)(env, self.memory, self)
            except KeyError as error:
                raise _undefined(block, error) from None
        raise FuelExhausted(f"exceeded {self.max_steps} steps")


def run_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 50_000_000,
    on_branch: Optional[Callable[[BranchSite, bool], None]] = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`Machine`."""
    machine = Machine(program, input_values, max_steps, on_branch)
    return machine.run(*args)
