"""Trace-producing interpreter for the IR.

:class:`Machine` executes a :class:`~repro.ir.Program` with a flat word
memory, deterministic input and output streams, and a fuel limit.  A
run reports what it did only through two logs, flat typed buffers of
integer codes that both tiers append to from their generated code, as
the paper's tracing tool inserts trace code into the program:

* a :class:`BranchLog` of every executed conditional branch (site and
  direction) and, with history bits, the frame-local history each
  branch saw: the event stream that profiles, predictors and
  replication measurements consume;
* a :class:`TransferLog` of every activation entry and control
  transfer: the blocks the run entered, in order, from which edge
  counts and the instruction fetch stream are folded.

A branch and the transfer it makes share one code.  Callers fold the
logs in bulk once the run is over.

An activation of a function that makes calls is a generator, run by
the one driver loop in :meth:`Machine.call`.  The driver keeps an
explicit generator stack, so deep recursion never recurses in the host.
A call yields ``(callee, argv)``; a return leaves its value in the
machine and finishes its generator, which the driver then pops.  A
*leaf*, a function without calls, compiles its hot tier to a plain
function instead: once it has one, its caller (hot or cold), the driver
and its own cold activation's tier-up call it in place, which adds one
host frame and no generator.  An activation runs in one of two tiers:

* **Cold.**  On first entry to a block in a run, the block's
  instructions are split at ``call``s into straight-line segments, and
  each segment is lowered to one Python function together with the exit
  that closes it: the call's arguments, or the block's branch comparison
  or return value.  Registers live in Python locals inside a segment and
  are written back to the activation's register dict at its end.
  Segments are cached process-wide, keyed by content —
  ``(instructions, exit)`` — so the replicated copies of one loop body,
  which differ only in their terminator targets, share one function;
  :data:`MAX_COMPILED_SEGMENTS` bounds that cache.
* **Hot.**  One generated function for the whole function, a generator
  unless it is a leaf, in which registers are Python locals for the
  whole activation.  A successor whose only predecessor is the edge
  being emitted is inlined (nesting is capped by
  :data:`MAX_INLINE_DEPTH`); every other block is a merge point,
  reached through a binary if-tree on its block index.  The appends to
  the branch log (with or without history) and to the transfer log are
  compiled in for the flag set of the run.

Both tiers share the lowering of instructions, in which register names
and immediates reach the generated source only through ``repr()`` and
opcodes only through the fixed tables below.

An activation tiers up once its function has run :data:`HOT_RATIO`
times its static size in instructions in the current run: at its next
block transfer into a merge point, with the registers live there loaded
from the register dict (a register absent there stays unbound, so
reading it raises the same undefined-register trap).  A new activation
of such a function starts hot.  Hot functions are cached process-wide,
keyed by content plus flag set plus the arity of every function in the
program, so later runs start hot at activation entry;
:data:`MAX_HOT_INSTRUCTIONS` bounds that cache.  A run looks a function
up only when a cached entry has its name, block count and flag set, so
a function that stays cold is never hashed whole.

Fuel is charged per segment in both tiers: its instructions plus the
call or terminator that ends it.  The cold tier checks every segment,
and only the one segment that would cross ``max_steps`` runs
instruction by instruction, so :class:`FuelExhausted` fires at exactly
the step, and after exactly the side effects, of a machine that charged
every instruction on its own.  The hot tier checks once per merge point
and after each call, against everything the code up to the next check
could charge; when that might not fit, the activation continues in the
cold tier from that point, with its register dict rebuilt from the
bound locals.  Tier-up waits while less fuel is left than the
function's size, so the two never alternate.
"""

from __future__ import annotations

import functools
import threading
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


# -- lowering shared by both tiers ---------------------------------------------

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


def _inline_division(op: str, a: str, divisor: int) -> str:
    """``_div``/``_mod`` of *a* by a nonzero immediate, as inline
    truncating arithmetic.  The remainder takes the dividend's sign, so
    it depends only on the divisor's magnitude."""
    d = abs(divisor)
    if op == "mod":
        return f"({a} % {d} if {a} >= 0 else -(-{a} % {d}))"
    if divisor > 0:
        return f"({a} // {d} if {a} >= 0 else -(-{a} // {d}))"
    return f"(-({a} // {d}) if {a} >= 0 else -{a} // {d})"


_NAMESPACE = {"_div": _div, "_mod": _mod, "TrapError": TrapError}

_compiled: Dict[tuple, Callable] = {}
_compiled_lock = threading.Lock()


class _Lowering:
    """Source lines of straight-line code; registers map to locals
    ``r0, r1, ...``.  For a segment (*load_env*) each register is loaded
    from ``env`` just before its first read; a hot function's registers
    are locals for the whole activation.  :attr:`reads` collects every
    register read, in order, as ``(local, register)``."""

    def __init__(self, load_env: bool = True) -> None:
        self.lines: List[str] = []
        self.locals: Dict[str, str] = {}
        self.written: Dict[str, str] = {}
        self.load_env = load_env
        self.reads: List[Tuple[str, str]] = []

    def local(self, register: str) -> str:
        name = self.locals.get(register)
        if name is None:
            name = self.locals[register] = f"r{len(self.locals)}"
        return name

    def read(self, operand) -> str:
        if type(operand) is not str:
            return f"({operand!r})"
        name = self.locals.get(operand)
        if name is None:
            name = self.local(operand)
            if self.load_env:
                self.lines.append(f"{name} = env[{operand!r}]")
        self.reads.append((name, operand))
        return name

    def assign(self, dest: str, expr: str) -> None:
        name = self.written[dest] = self.local(dest)
        self.lines.append(f"{name} = {expr}")

    def instr(self, instr) -> None:
        cls = instr.__class__
        if cls is BinOp:
            a, b = self.read(instr.lhs), self.read(instr.rhs)
            op, divisor = instr.op, instr.rhs
            if op in ("div", "mod") and type(divisor) is int and divisor != 0:
                self.assign(instr.dest, _inline_division(op, a, divisor))
            else:
                self.assign(instr.dest, _BINOP_EXPRS[op].format(a=a, b=b))
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


# -- cold tier: segments --------------------------------------------------------


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


_BRANCH, _JUMP, _RETURN, _BROKEN = range(4)


def _targets(terminator) -> Tuple[str, ...]:
    """A block's successor labels, indexed by the way out: the branch
    direction, or 0 for a jump."""
    cls = terminator.__class__
    if cls is Branch:
        return (terminator.not_taken, terminator.taken)
    return (terminator.target,) if cls is Jump else ()


def _call_trap(call: Call, arity: Dict[str, int]) -> Optional[str]:
    """Why *call* cannot run in a program whose functions take
    ``arity[name]`` parameters, or ``None``."""
    params = arity.get(call.func)
    if params is None:
        return f"call to unknown function {call.func!r}"
    if params != len(call.args):
        return f"bad arity calling {call.func!r}"
    return None


class _CallSite:
    """A segment ending at a call, plus the call's callee and its trap."""

    __slots__ = ("instrs", "run", "cost", "callee", "dest", "trap")

    def __init__(self, instrs: tuple, call: Call, arity: Dict[str, int]) -> None:
        self.instrs = instrs
        self.cost = len(instrs) + 1
        self.dest = call.dest
        self.callee = call.func
        self.trap = _call_trap(call, arity)
        self.run = _segment(instrs, None if self.trap else ("call", tuple(call.args)))


class _Block:
    """A block decoded for one run: its call segments, its tail segment
    (closed by the terminator) and its successors, resolved lazily.
    ``next`` and ``targets`` are indexed by the branch outcome
    (``False``/``True``), or by 0 for a jump."""

    __slots__ = (
        "label", "calls", "n_calls", "instrs", "run", "cost",
        "kind", "code", "targets", "next", "trap",
    )

    def __init__(self, block: BasicBlock, arity: Dict[str, int], code: int) -> None:
        self.label = block.label
        #: the block's log code; a branch event or transfer adds its way
        self.code = code
        calls = []
        start = 0
        for index, instr in enumerate(block.instrs):
            if instr.__class__ is Call:
                calls.append(_CallSite(tuple(block.instrs[start:index]), instr, arity))
                start = index + 1
        self.calls = tuple(calls)
        self.n_calls = len(calls)
        self.instrs = tuple(block.instrs[start:])
        self.cost = len(self.instrs) + 1
        self.trap: Optional[str] = None
        term = block.terminator
        self.targets = _targets(term)
        cls = term.__class__
        exit = None
        if cls is Branch:
            self.kind = _BRANCH
            exit = ("br", term.op, term.lhs, term.rhs)
        elif cls is Jump:
            self.kind = _JUMP
        elif cls is Return:
            self.kind = _RETURN
            exit = ("ret", term.value)
        else:
            self.kind = _BROKEN
            self.trap = f"block {block.label!r} has no terminator"
        self.run = _segment(self.instrs, exit)
        self.next: List[Optional[_Block]] = [None] * len(self.targets)


def _undefined(function: str, label: str, error: KeyError) -> TrapError:
    return TrapError(f"{function}:{label}: read of undefined register {error.args[0]!r}")


# -- hot tier: whole functions --------------------------------------------------

#: An activation tiers up once its function has run ``HOT_RATIO`` times
#: its static size in instructions in the current run.  Compiling costs
#: about 45-65 us per instruction of the whole function (most of it in
#: ``compile()``), and the hot tier saves about 0.18-0.34 us per
#: executed instruction over the cold one (CPython 3.11, 2-vCPU Xeon),
#: so within one run a function pays its compilation back after some
#: 150-350 times its size.  Compiled functions are kept for later runs,
#: so the ratio sits at the low end of that range: eagerly compiling the
#: sweep's 46 large prefix programs, of which only a quarter of the
#: blocks ever run, would cost more than running them all cold.
HOT_RATIO = 200

#: Upper bound on the instructions held by the process-wide cache of hot
#: functions.  A cached instruction keeps ~0.25 KB (code object and
#: content key; tracemalloc, CPython 3.11), so the cache stays under
#: 0.8 MB.  One ``replicate-cold`` round at scale 2 runs the eight
#: benchmarks and their replicated copies under four flag sets (plain,
#: branch log with history, branch log, transfer log), and the hot
#: functions it uses take 2.28-2.34k instructions.  Under a bound
#: of 2048 they did not fit, and every round compiled 51 functions; at
#: 3072, rounds after the first compile 3-15, only their new copies.
MAX_HOT_INSTRUCTIONS = 3072

#: Deepest nesting of inlined branch arms in a hot function's source.
#: CPython refuses more than 100 indentation levels; the function, its
#: ``try``, its loop and a dispatch tree of up to 2**20 merge points
#: take at most 23.
MAX_INLINE_DEPTH = 60


class _Hot:
    """A compiled hot function: ``(machine, argv, env, block index,
    history)``, a plain function for a *leaf* (a function without
    calls) and a generator function otherwise, and the block index of
    every merge point (the blocks it can be entered at)."""

    __slots__ = ("run", "index", "shape", "size", "leaf", "reused")

    def __init__(
        self, run: Callable, index: Dict[str, int], shape: tuple, size: int, leaf: bool
    ) -> None:
        self.run = run
        self.index = index
        self.shape = shape
        self.size = size
        self.leaf = leaf
        self.reused = False


class _HotCache:
    """Hot functions by content key, bounded in instructions.  The least
    recently used entry that was never reused is evicted first, so a
    stream of one-run functions (each round's freshly replicated
    programs) cannot push out the ones every run needs.  ``shapes``
    counts the entries per ``(flags, name, block count)``, so a run
    hashes a function whole only when an entry might match."""

    def __init__(self) -> None:
        self.entries: Dict[tuple, _Hot] = {}
        self.shapes: Dict[tuple, int] = {}
        self.size = 0
        self.lock = threading.Lock()

    def get(self, key: tuple) -> Optional[_Hot]:
        """The entry for *key*, now the most recently used, or ``None``."""
        with self.lock:
            hot = self.entries.pop(key, None)
            if hot is not None:
                self.entries[key] = hot
                hot.reused = True
            return hot

    def add(self, key: tuple, hot: _Hot) -> _Hot:
        if hot.size > MAX_HOT_INSTRUCTIONS:
            return hot
        with self.lock:
            found = self.entries.get(key)
            if found is not None:
                return found
            while self.entries and self.size + hot.size > MAX_HOT_INSTRUCTIONS:
                entries = self.entries
                victim = next((k for k, e in entries.items() if not e.reused), next(iter(entries)))
                old = entries.pop(victim)
                self.size -= old.size
                left = self.shapes.pop(old.shape, 1) - 1
                if left > 0:
                    self.shapes[old.shape] = left
            self.entries[key] = hot
            self.size += hot.size
            self.shapes[hot.shape] = self.shapes.get(hot.shape, 0) + 1
            return hot


_hot_functions = _HotCache()


def _content(function: Function) -> tuple:
    """Everything a hot function's code depends on in *function*.

    Neither tier reads a branch's planted ``predict`` bit, so a branch
    enters the key as its other fields, a tuple: replicated programs
    that differ only in their predictions share one hot function."""
    return (
        function.name,
        tuple(function.params),
        function.entry,
        tuple(
            (label, block.label, tuple(block.instrs), _unpredicted(block.terminator))
            for label, block in function.blocks.items()
        ),
    )


def _unpredicted(terminator):
    """*terminator*, or a branch's fields but ``predict``."""
    if terminator.__class__ is not Branch:
        return terminator
    return (
        terminator.op,
        terminator.lhs,
        terminator.rhs,
        terminator.taken,
        terminator.not_taken,
        terminator.pointer,
    )


@functools.lru_cache(maxsize=4)
def _source(key: tuple) -> "_HotSource":
    """The regenerated source of a compiled hot function, for the rare
    paths (fuel running out, an undefined register) that need its line
    and register tables."""
    return _HotSource(key)


def _deopt(m: "Machine", key: tuple, point: int, bound: dict, history: int):
    """The cold activation that takes over a hot one at resume *point*,
    with the register dict rebuilt from the bound locals.  A leaf runs
    it to the end in place: it makes no calls, and with less fuel left
    than the function's size it never tiers up, so it never yields."""
    source = _source(key)
    label, segment = source.resume[point]
    env = {register: bound[local] for local, register in source.registers if local in bound}
    routine = m._routines[source.name]
    return m._cold(routine, env, routine.block(label), segment, history)


def _undefined_local(error: UnboundLocalError, bound: dict, key: tuple) -> Optional[TrapError]:
    """The undefined-register trap for an unbound register local read on
    a line of a hot function, or ``None`` when *error* was raised
    anywhere else (a fault of the interpreter itself).  The culprit is
    the first unbound register in the lowering's read order, as in a
    segment."""
    where = error.__traceback__
    if where is None or where.tb_next is not None:
        return None
    source = _source(key)
    trap = source.lines[where.tb_lineno - 1][2]
    if trap is None:
        return None
    label, reads = trap
    for local, register in reads:
        if local not in bound:
            return TrapError(f"{source.name}:{label}: read of undefined register {register!r}")
    return None


class _HotSource:
    """The source of the hot function for content key *key*.

    Leaves of the dispatch tree are merge points: the entry, blocks with
    several predecessor edges, and blocks too deep to inline.  Every
    emitted path ends in ``continue`` (to the dispatch tree), ``return``,
    ``raise`` or ``break``, so a branch's not-taken arm follows its ``if``
    without an ``else``.  :attr:`lines` are ``(indent, text, trap)``,
    where *trap* is ``(label, reads)`` for a line that reads registers.

    Fuel is charged per segment, but checked only where a leaf starts
    and after each call: a leaf whose segments might not all fit leaves
    the loop (``break``) and hands the activation to the cold tier at
    that resume point, which runs out of fuel at the exact step.  The
    source is a pure function of the key, so those rare paths rebuild
    it instead of keeping tables alive in every compiled function.

    A function without calls is a *leaf*: its source has no ``yield``,
    so its activations run to the end in place, called directly by
    their caller instead of through the driver.  A call site in another
    hot function calls the callee directly when the run's leaf map has
    it, and yields to the driver otherwise.
    """

    def __init__(self, key: tuple) -> None:
        flags, arity, (name, params, entry, blocks) = key
        self.name = name
        self.leaf = not any(
            instr.__class__ is Call for _, _, instrs, _ in blocks for instr in instrs
        )
        self.log, self.history, self.transfers = flags
        self.arity = dict(arity)
        self.blocks = {
            label: BasicBlock(
                block_label, instrs, Branch(*term) if term.__class__ is tuple else term
            )
            for label, block_label, instrs, term in blocks
        }
        #: each block's log code, relative to the function's base
        self.codes = {label: 2 * position for position, label in enumerate(self.blocks)}
        self.lowering = _Lowering(load_env=False)
        self.namespace = dict(_NAMESPACE, _deopt=_deopt, _undefined_local=_undefined_local)
        #: (block label, segment index) of every fuel check
        self.resume: List[Tuple[str, int]] = []
        self.index: Dict[str, int] = {}
        self.order: List[str] = []
        self.preds = self._predecessors(entry)
        self.target(entry)
        leaves = []
        while len(leaves) < len(self.order):
            out: list = []
            self.checks: List[int] = []
            self.cost = 0
            self.check(self.order[len(leaves)], 0, 0, out)
            self.chain(self.order[len(leaves)], 0, out)
            for line in self.checks:
                depth, point, _ = out[line]
                out[line] = (depth, f"if steps > limit - {self.cost}: k = {point}; break", None)
            leaves.append(out)
        self.lines = self._function(params, leaves)

    def _predecessors(self, entry: str) -> Dict[str, int]:
        """Predecessor edges of every block reachable from the entry;
        the entry counts its activation as one more."""
        preds = {entry: 1}
        work = [entry]
        while work:
            for target in _targets(self.blocks[work.pop()].terminator):
                if target in self.blocks:
                    if target not in preds:
                        work.append(target)
                    preds[target] = preds.get(target, 0) + 1
        return preds

    def _live_at_merges(self) -> List[str]:
        """Registers that some path from a merge point reads before it
        writes them: the only ones a tier-up must load."""
        gen, kill = {}, {}
        for label in self.preds:
            block = self.blocks[label]
            used, defined = [], set()
            for instr in (*block.instrs, block.terminator or Return()):
                used += [reg for reg in instr.uses() if reg not in defined]
                defined.update(instr.defs())
            gen[label], kill[label] = set(used), defined
        live = {label: set() for label in self.preds}
        changed = True
        while changed:
            changed = False
            for label in self.preds:
                out = set()
                for target in _targets(self.blocks[label].terminator):
                    out |= live.get(target, set())
                new = gen[label] | (out - kill[label])
                if new != live[label]:
                    live[label], changed = new, True
        return sorted(set().union(*(live[label] for label in self.order)))

    def target(self, label: str) -> int:
        """The dispatch index of merge point *label*."""
        index = self.index.get(label)
        if index is None:
            index = self.index[label] = len(self.order)
            self.order.append(label)
        return index

    def inlined(self, label: str, depth: int) -> bool:
        return self.preds.get(label) == 1 and depth <= MAX_INLINE_DEPTH and label not in self.index

    def trap(self, block: BasicBlock) -> Optional[tuple]:
        reads = self.lowering.reads
        return (block.label, tuple(reads)) if reads else None

    def check(self, label: str, segment: int, depth: int, out: list) -> None:
        """A fuel check resuming cold at *segment* of block *label*; its
        bound, the leaf's total cost, is filled in once the leaf is done."""
        self.checks.append(len(out))
        out.append((depth, len(self.resume), None))
        self.resume.append((label, segment))

    # -- blocks --------------------------------------------------------------

    def chain(self, label: str, depth: int, out: list) -> None:
        """Emit block *label* and every successor inlined after it."""
        while True:
            block = self.blocks[label]
            if not self.body(label, block, depth, out):
                return
            term = block.terminator
            cls = term.__class__
            if cls is Jump:
                self.transfer(self.codes[label], depth, out)
                if self.inlined(term.target, depth):
                    label = term.target
                    continue
                self.goto(term.target, depth, out)
                return
            if cls is Branch:
                self.lowering.reads.clear()
                a, b = self.lowering.read(term.lhs), self.lowering.read(term.rhs)
                out.append((depth, "branches += 1", None))
                out.append((depth, f"if {a} {_CMP_OPS[term.op]} {b}:", self.trap(block)))
                code = self.codes[label]
                self.record(code + 1, depth + 1, out)
                self.transfer(code + 1, depth + 1, out)
                if self.inlined(term.taken, depth + 1):
                    self.chain(term.taken, depth + 1, out)
                else:
                    self.goto(term.taken, depth + 1, out)
                self.record(code, depth, out)
                self.transfer(code, depth, out)
                if self.inlined(term.not_taken, depth):
                    label = term.not_taken
                    continue
                self.goto(term.not_taken, depth, out)
                return
            if cls is Return:
                self.lowering.reads.clear()
                value = "None" if term.value is None else self.lowering.read(term.value)
                out.append((depth, f"m._value = {value}", self.trap(block)))
                out.append((depth, "m._steps = steps", None))
                out.append((depth, "m._branches = branches", None))
                out.append((depth, "return", None))
                return
            message = f"block {block.label!r} has no terminator"
            out.append((depth, f"raise TrapError({message!r})", None))
            return

    def body(self, label: str, block: BasicBlock, depth: int, out: list) -> bool:
        """Emit the block's segments and calls; False when a call traps."""
        start = 0
        segment = 0
        instrs = block.instrs
        for position, instr in enumerate(instrs):
            if instr.__class__ is not Call:
                continue
            self.segment(block, instrs[start:position], depth, out)
            start = position + 1
            segment += 1
            trap = _call_trap(instr, self.arity)
            if trap is not None:
                out.append((depth, f"raise TrapError({trap!r})", None))
                return False
            self.lowering.reads.clear()
            argv = "".join(f"{self.lowering.read(arg)}, " for arg in instr.args)
            out.append((depth, "m._steps = steps", None))
            out.append((depth, "m._branches = branches", None))
            out.append((depth, f"args = ({argv})", self.trap(block)))
            out.append((depth, f"leaf = leaves.get({instr.func!r})", None))
            out.append((depth, "if leaf is not None: leaf(m, args, None, 0, 0)", None))
            out.append((depth, f"else: yield ({instr.func!r}, args)", None))
            out.append((depth, "steps = m._steps", None))
            out.append((depth, "branches = m._branches", None))
            if instr.dest is not None:
                local = self.lowering.local(instr.dest)
                message = f"void return but caller expects a value in {instr.dest!r}"
                out.append((depth, f"{local} = m._value", None))
                out.append((depth, f"if {local} is None: raise TrapError({message!r})", None))
            self.check(label, segment, depth, out)
        self.segment(block, instrs[start:], depth, out)
        return True

    def segment(self, block: BasicBlock, instrs: list, depth: int, out: list) -> None:
        """Charge fuel for *instrs* plus the instruction that closes
        them, then emit them one line each."""
        cost = len(instrs) + 1
        self.cost += cost
        out.append((depth, f"steps += {cost}", None))
        lowering = self.lowering
        for instr in instrs:
            lowering.reads.clear()
            lowering.instr(instr)
            out.append((depth, lowering.lines.pop(), self.trap(block)))

    def record(self, code: int, depth: int, out: list) -> None:
        """Log the branch event *code* (the block's code plus the
        direction) and the history it saw, then shift the direction in."""
        if self.log:
            out.append((depth, f"log(base + {code})", None))
        if self.history:
            out.append((depth, "hist(h)", None))
            out.append((depth, f"h = ({'(h << 1) | 1' if code & 1 else 'h << 1'}) & mask", None))

    def transfer(self, code: int, depth: int, out: list) -> None:
        """Log the transfer *code*: the block's code plus the way out."""
        if self.transfers:
            out.append((depth, f"transfer(base + {code})", None))

    def goto(self, label: str, depth: int, out: list) -> None:
        if label not in self.blocks:
            out.append((depth, f"raise KeyError({label!r})", None))
            return
        out.append((depth, f"b = {self.target(label)}", None))
        out.append((depth, "continue", None))

    # -- the function --------------------------------------------------------

    def _function(self, params: tuple, leaves: list) -> list:
        """The whole function ``(machine, argv, env, block index,
        history)``: activation entry binds *argv*, a tier-up loads from
        *env* every register live at a merge point."""
        lowering = self.lowering
        bind = "".join(f"{lowering.local(param)}, " for param in params)
        live = self._live_at_merges()
        self.registers = tuple((local, register) for register, local in lowering.locals.items())
        deopt = "_deopt(m, _KEY, k, locals(), h)"
        lines: list = [
            (0, "def hot(m, argv, env, b, h):", None),
            (1, "memory, limit, log, hist, transfer, mask, leaves = m._context", None),
        ]
        if self.log or self.transfers:
            lines.append((1, f"base = m._bases[{self.name!r}]", None))
        lines += [
            (1, "steps = m._steps", None),
            (1, "branches = m._branches", None),
            (1, "try:", None),
            (2, "if env is None:", None),
            (3, f"{bind}= argv" if bind else "pass", None),
        ]
        if self.transfers:
            lines.append((3, f"transfer(m._entries[{self.name!r}])", None))
        lines.append((2, "else:", None))
        lines += [
            (3, f"if {register!r} in env: {lowering.local(register)} = env[{register!r}]", None)
            for register in live
        ] or [(3, "pass", None)]
        lines.append((2, "while True:", None))
        _dispatch(leaves, 0, len(leaves), 3, lines)
        return lines + [
            (2, "m._steps = steps", None),
            (2, "m._branches = branches", None),
            (2, f"next({deopt}, None)" if self.leaf else f"yield {deopt}", None),
            (1, "except UnboundLocalError as error:", None),
            (2, "trap = _undefined_local(error, locals(), _KEY)", None),
            (2, "if trap is None:", None),
            (3, "raise", None),
            (2, "raise trap from None", None),
        ]

    def compile(self, key: tuple) -> Callable:
        source = "".join("    " * indent + text + "\n" for indent, text, _ in self.lines)
        self.namespace["_KEY"] = key
        exec(compile(source, f"<repro.interp hot {self.name!r}>", "exec"), self.namespace)
        return self.namespace["hot"]


def _dispatch(leaves: list, lo: int, hi: int, indent: int, lines: list) -> None:
    """The binary if-tree over block index ``b`` for leaves [lo, hi)."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lines.append((indent, f"if b < {mid}:", None))
        _dispatch(leaves, lo, mid, indent + 1, lines)
        lo = mid
    lines += [(indent + depth, text, trap) for depth, text, trap in leaves[lo]]


# -- runs -----------------------------------------------------------------------


def _buffer(limit: int):
    """An empty buffer of the narrowest type that holds 0 .. *limit* - 1:
    a ``bytearray``, whose ``append`` costs half an ``array``'s, else an
    unsigned ``array``, else a list."""
    if limit <= 256:
        return bytearray()
    for typecode in "HIQ":
        if limit <= 1 << (8 * array(typecode).itemsize):
            return array(typecode)
    return []


class BranchLog:
    """The conditional branches one run executed, in execution order.

    ``codes[i]`` is ``2 * block + taken`` for the *i*-th event, where
    *block* numbers the program's blocks in order, function after
    function.  ``history[i]`` is the frame-local history that branch
    saw; ``history`` is ``None`` when the run tracked none.  Each is the
    narrowest buffer that holds its values, so a run of a program of up
    to 128 blocks logs one byte per event, plus one for up to 8 history
    bits.  Callers fold the buffers in bulk and map the distinct codes
    back to their blocks with :meth:`blocks`, or to branch sites with
    :meth:`sites`.
    """

    __slots__ = ("program", "codes", "history")

    def __init__(self, program: Program, codes, history) -> None:
        self.program = program
        self.codes = codes
        self.history = history

    def __len__(self) -> int:
        return len(self.codes)

    def blocks(self, codes: Iterable[int]) -> Dict[int, Tuple[str, BasicBlock]]:
        """The ``(function name, block)`` each of *codes* branched in."""
        blocks = [
            (function.name, block)
            for function in self.program.functions.values()
            for block in function.blocks.values()
        ]
        return {code: blocks[code >> 1] for code in codes}

    def sites(self, codes: Iterable[int]) -> Dict[int, BranchSite]:
        """The branch site of each of *codes*."""
        return {
            code: BranchSite(name, block.label)
            for code, (name, block) in self.blocks(codes).items()
        }


class TransferLog:
    """The control transfers one run made, in execution order: the
    blocks it entered, which is its instruction fetch stream.

    A transfer out of a block logs ``2 * block + way``, numbering blocks
    as :class:`BranchLog` does; *way* is the branch direction, or 0 for a
    jump, so a branch's transfer has the code of its branch event.  An
    activation of the *f*-th function of the program logs
    ``entries + f``, where :attr:`entries` is twice the program's block
    count.  A transfer to a missing label is logged before the run
    raises ``KeyError``.  :meth:`decode` maps codes back to transfers.
    """

    __slots__ = ("program", "codes", "entries")

    def __init__(self, program: Program, codes, entries: int) -> None:
        self.program = program
        self.codes = codes
        self.entries = entries

    def decode(self, codes: Iterable[int]) -> Dict[int, Tuple[str, Optional[str], str]]:
        """The ``(function, source, target)`` of each of *codes*; an
        activation entry has no source and targets the entry block."""
        transfers: list = []
        functions = self.program.functions.values()
        for function in functions:
            for block in function.blocks.values():
                targets = _targets(block.terminator)
                transfers += [(function.name, block.label, target) for target in targets]
                transfers += [None] * (2 - len(targets))
        transfers += [(function.name, None, function.entry) for function in functions]
        return {code: transfers[code] for code in codes}

    def edge_counts(self) -> Counter:
        """Executions of every ``(function, source, target)`` edge, in
        first-execution order; activation entries are not edges."""
        counts = Counter(self.codes)
        edges = self.decode(code for code in counts if code < self.entries)
        result: Counter = Counter()
        for code, edge in edges.items():
            result[edge] += counts[code]
        return result


class _Routine:
    """One function's state in one run: its decoded blocks, the
    instructions it may still run cold, and its hot tier."""

    __slots__ = (
        "function", "params", "arity", "base", "codes", "size", "left", "hot", "index",
        "decoded", "key",
    )

    def __init__(self, function: Function, arity: Dict[str, int], base: int) -> None:
        self.function = function
        self.params = function.params
        self.arity = arity
        self.base = base
        self.codes: Optional[Dict[str, int]] = None
        self.size = function.size()
        self.left = HOT_RATIO * self.size
        self.hot: Optional[Callable] = None
        self.index: Dict[str, int] = {}
        self.decoded: Dict[str, _Block] = {}
        self.key: Optional[tuple] = None

    def block(self, label: str) -> _Block:
        found = self.decoded.get(label)
        if found is None:
            blocks = self.function.blocks
            block = blocks[label]
            if self.codes is None:
                self.codes = {name: self.base + 2 * i for i, name in enumerate(blocks)}
            found = self.decoded[label] = _Block(block, self.arity, self.codes[label])
        return found

    def use(self, hot: _Hot, leaves: Dict[str, Callable]) -> None:
        """Run *hot* from now on; a leaf joins the run's leaf map."""
        self.hot = hot.run
        self.index = hot.index
        if hot.leaf:
            leaves[self.function.name] = hot.run


class Machine:
    """Executes IR programs and logs their branches and transfers.

    Parameters
    ----------
    program:
        The program to run.
    input_values:
        Words returned by successive ``in`` instructions.
    max_steps:
        Fuel limit in executed instructions; exceeding it raises
        :class:`FuelExhausted` (protects against runaway loops in
        randomly generated programs).  Every other entry point runs
        with the default, 100 million (the paper traces "up to a
        maximum of 100 million branch instructions").
    track_history_bits:
        When positive, every call frame of a run that logs its branches
        maintains the history of its own branches (frame-local path
        history, bit 0 = most recent outcome), and the branch log keeps
        the value *seen by each branch*.  This is what CFG-path
        replication can actually observe, as opposed to raw global
        history which crosses call boundaries.
    log_branches:
        Log every executed conditional branch into :attr:`branch_log`.
    log_transfers:
        Log every activation entry and control transfer into
        :attr:`transfer_log`.

    Each log holds the latest run's events, also when it trapped.
    """

    def __init__(
        self,
        program: Program,
        input_values: Sequence[int] = (),
        max_steps: int = 100_000_000,
        track_history_bits: int = 0,
        log_branches: bool = False,
        log_transfers: bool = False,
    ) -> None:
        self.program = program
        self.input_values = list(input_values)
        self.max_steps = max_steps
        self.track_history_bits = track_history_bits
        self.log_branches = log_branches
        self.log_transfers = log_transfers
        #: the branches of the latest run, when it logged them
        self.branch_log: Optional[BranchLog] = None
        #: the transfers of the latest run, when it logged them
        self.transfer_log: Optional[TransferLog] = None
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
        functions = self.program.functions
        self._arity = {name: len(f.params) for name, f in functions.items()}
        # Block *i* of the program, counting function after function,
        # logs a branch event or transfer as 2 * i + way; entering
        # function *f* logs 2 * (all blocks) + f.
        self._bases: Dict[str, int] = {}
        codes = 0
        for f in functions.values():
            self._bases[f.name] = codes
            codes += 2 * len(f.blocks)
        self._entries = {name: codes + f for f, name in enumerate(functions)}
        log = hist = transfer = None
        mask = 0
        self.branch_log = self.transfer_log = None
        if self.log_branches:
            bits = self.track_history_bits
            mask = (1 << bits) - 1 if bits > 0 else 0
            self.branch_log = BranchLog(
                self.program, _buffer(codes), _buffer(1 << bits) if mask else None
            )
            log = self.branch_log.codes.append
            hist = self.branch_log.history.append if mask else None
        if self.log_transfers:
            self.transfer_log = TransferLog(
                self.program, _buffer(codes + len(functions)), codes
            )
            transfer = self.transfer_log.codes.append
        # The run's constants, its hot leaves by name, and its counters,
        # shared by every activation; an activation keeps the counters
        # in locals and writes them back before it calls, yields or
        # returns.
        self._leaves: Dict[str, Callable] = {}
        self._context = (self.memory, self.max_steps, log, hist, transfer, mask, self._leaves)
        self._flags = (log is not None, mask > 0, transfer is not None)
        self._steps = self._branches = 0
        self._value = None
        routines: Dict[str, _Routine] = {}
        self._routines = routines
        routine = routines[func_name] = self._routine(function)
        gen = self._activate(routine, tuple(args))
        if gen is not None:
            self._drive(gen)
        return RunResult(self._value, self.output, self._steps, self._branches)

    def _drive(self, gen) -> None:
        """Run activation *gen* and everything it calls to completion."""
        routines = self._routines
        stack = []
        resume = next
        while True:
            out = resume(gen, None)
            if out.__class__ is tuple:
                name, argv = out
                routine = routines.get(name)
                if routine is None:
                    routine = routines[name] = self._routine(self.program.functions[name])
                hot = routine.hot
                if hot is not None:
                    callee = hot(self, argv, None, 0, 0)
                else:
                    callee = self._activate(routine, argv)
                if callee is not None:  # else a hot leaf ran in place
                    stack.append(gen)
                    gen = callee
            elif out is None:
                if not stack:
                    return
                gen = stack.pop()
            else:  # an activation changing tier hands over its successor
                gen = out

    def _routine(self, function: Function) -> _Routine:
        """A function's run state, hot from the start if a cached hot
        function has its content."""
        routine = _Routine(function, self._arity, self._bases[function.name])
        if (self._flags, function.name, len(function.blocks)) in _hot_functions.shapes:
            found = _hot_functions.get(self._hot_key(routine))
            if found is not None:
                routine.use(found, self._leaves)
        return routine

    def _hot_key(self, routine: _Routine) -> tuple:
        if routine.key is None:
            arity = tuple(sorted(self._arity.items()))
            routine.key = (self._flags, arity, _content(routine.function))
        return routine.key

    def _tier_up(self, routine: _Routine) -> Callable:
        """Give *routine* its hot tier, from the cache or compiled."""
        key = self._hot_key(routine)
        hot = _hot_functions.get(key)
        if hot is None:
            function = routine.function
            source = _HotSource(key)
            shape = (self._flags, function.name, len(function.blocks))
            hot = _Hot(source.compile(key), source.index, shape, routine.size, source.leaf)
            hot = _hot_functions.add(key, hot)
        routine.use(hot, self._leaves)
        return hot.run

    def _activate(self, routine: _Routine, argv: tuple):
        """A new activation of *routine* with arguments *argv*: hot once
        its function has a hot tier or has overrun its cold budget.  A
        hot leaf runs in place and gives ``None``."""
        hot = routine.hot
        if hot is None and routine.left < 0:
            hot = self._tier_up(routine)
        if hot is not None:
            return hot(self, argv, None, 0, 0)
        function = routine.function
        transfer = self._context[4]
        if transfer is not None:
            transfer(self._entries[function.name])
        env = dict(zip(routine.params, argv))
        return self._cold(routine, env, routine.block(function.entry), 0, 0)

    def _cold(
        self, routine: _Routine, env: Dict[str, int], block: _Block, segment: int, history: int
    ):
        """An activation in the cold tier, from *segment* of *block*: the
        segment walk."""
        memory, max_steps, log, hist, transfer, mask, leaves = self._context
        name = routine.function.name
        steps = self._steps
        branches = self._branches
        left = routine.left
        while True:
            if segment < block.n_calls:
                site = block.calls[segment]
                if steps + site.cost > max_steps:
                    self._exhaust(name, block.label, site.instrs, max_steps - steps, env)
                steps += site.cost
                left -= site.cost
                try:
                    argv = site.run(env, memory, self)
                except KeyError as error:
                    raise _undefined(name, block.label, error) from None
                if site.trap is not None:
                    raise TrapError(site.trap)
                self._steps = steps
                self._branches = branches
                routine.left = left
                leaf = leaves.get(site.callee)
                if leaf is not None:
                    leaf(self, argv, None, 0, 0)
                else:
                    yield (site.callee, argv)
                steps = self._steps
                branches = self._branches
                left = routine.left
                dest = site.dest
                if dest is not None:
                    value = self._value
                    if value is None:
                        raise TrapError(f"void return but caller expects a value in {dest!r}")
                    env[dest] = value
                segment += 1
                continue

            if steps + block.cost > max_steps:
                self._exhaust(name, block.label, block.instrs, max_steps - steps, env)
            steps += block.cost
            left -= block.cost
            try:
                result = block.run(env, memory, self)
            except KeyError as error:
                raise _undefined(name, block.label, error) from None
            kind = block.kind
            if kind is _BRANCH:
                branches += 1
                if log is not None:
                    log(block.code + result)
                    if mask:
                        hist(history)
                        history = ((history << 1) | result) & mask
                way = result
            elif kind is _JUMP:
                way = 0
            elif kind is _RETURN:
                self._value = result
                self._steps = steps
                self._branches = branches
                routine.left = left
                return
            else:
                raise TrapError(block.trap)
            if transfer is not None:
                transfer(block.code + way)
            target = block.targets[way]
            successor = block.next[way]
            if successor is None:
                successor = block.next[way] = routine.block(target)
            block = successor
            segment = 0
            # Tier up while the fuel left covers the whole function, so a
            # hot activation never hands straight back for lack of fuel.
            if left <= 0 and max_steps - steps >= routine.size:
                hot = routine.hot or self._tier_up(routine)
                index = routine.index.get(target)
                if index is not None:
                    self._steps = steps
                    self._branches = branches
                    # A hot leaf runs the rest of the activation in place
                    # and gives None, which the driver reads as its return.
                    yield hot(self, None, env, index, history)

    def _exhaust(
        self, function: str, label: str, instrs: tuple, budget: int, env: Dict[str, int]
    ) -> None:
        """Run the *budget* instructions of a segment that still fit in
        the fuel limit, one at a time, then raise :class:`FuelExhausted`."""
        for instr in instrs[: max(budget, 0)]:
            try:
                _segment((instr,), None)(env, self.memory, self)
            except KeyError as error:
                raise _undefined(function, label, error) from None
        raise FuelExhausted(f"exceeded {self.max_steps} steps")


def run_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
) -> RunResult:
    """One-shot convenience wrapper around :class:`Machine`."""
    return Machine(program, input_values).run(*args)
