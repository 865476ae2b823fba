"""The segment compiler: generated-source hygiene and the content cache.

Register names reach the generated Python source only through
``repr()``, so names with quotes, backslashes, newlines or non-ASCII
characters — or names that spell out Python code — must behave like
any other name.  Every opcode is checked against a hand-computed value,
with register and immediate operands in every position.
"""

import dataclasses
import sys
import threading

import pytest

from conftest import branch_events
from repro.interp import Machine, TrapError, machine, run_program
from repro.ir import BranchSite, ProgramBuilder, validate_program
from repro.workloads import random_program

NASTY = [
    "it's",
    'say "hi"',
    "back\\slash",
    "new\nline",
    "ünïcødé Ω",
    "'); raise SystemExit('",
    "r0",
    "env",
]

BINOP_CASES = [
    ("add", 7, -3, 4),
    ("sub", 7, -3, 10),
    ("mul", -4, 3, -12),
    ("div", 7, 2, 3),
    ("div", -7, 2, -3),
    ("div", 7, -2, -3),
    ("div", -7, -2, 3),
    ("mod", 7, 3, 1),
    ("mod", -7, 3, -1),
    ("mod", 7, -3, 1),
    ("mod", -7, -3, -1),
    ("and", 12, 10, 8),
    ("or", 12, 10, 14),
    ("xor", 12, 10, 6),
    ("shl", 3, 4, 48),
    ("shl", 1, 64, 1),
    ("shl", 1, 65, 2),
    ("shl", 1, -1, 1 << 63),
    ("shr", 48, 4, 3),
    ("shr", -16, 2, -4),
    ("shr", 256, 72, 1),
    ("min", 3, -2, -2),
    ("max", 3, -2, 3),
]

UNOP_CASES = [("neg", 5, -5), ("neg", -5, 5), ("not", 0, -1), ("abs", -9, 9), ("abs", 9, 9)]

CMP_CASES = [
    ("eq", 2, 2, 1),
    ("ne", 2, 2, 0),
    ("lt", 1, 2, 1),
    ("le", 2, 2, 1),
    ("gt", 1, 2, 0),
    ("ge", 1, 2, 0),
    ("ge", 2, 2, 1),
]

#: operand placement: both registers, immediate left, immediate right
PLACEMENTS = ["regs", "imm-lhs", "imm-rhs"]


def _operands(fb, a, b, placement, names):
    """Define the register operands, then open a new block, so the
    operation reads them back from the frame's registers."""
    lhs = a if placement == "imm-lhs" else fb.const(a, dest=names[0])
    rhs = b if placement == "imm-rhs" else fb.const(b, dest=names[1])
    fb.label("use 'them'\n")
    return lhs, rhs


def _single(emit, names=("it's", 'say "hi"', "new\nline")):
    """``main`` whose one block runs *emit(fb, names)* and returns the
    register it names."""
    builder = ProgramBuilder()
    fb = builder.function("main")
    fb.ret(emit(fb, names))
    program = builder.build()
    validate_program(program)
    return program


@pytest.mark.parametrize("names", [NASTY[0:3], NASTY[3:6], NASTY[5:8]])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("op,a,b,expected", BINOP_CASES)
def test_binops(op, a, b, expected, placement, names):
    def emit(fb, names):
        lhs, rhs = _operands(fb, a, b, placement, names)
        return fb.binop(op, lhs, rhs, dest=names[2])

    assert run_program(_single(emit, names)).value == expected


@pytest.mark.parametrize("op", ["div", "mod"])
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_division_by_zero_traps(op, placement):
    def emit(fb, names):
        lhs, rhs = _operands(fb, 5, 0, placement, names)
        return fb.binop(op, lhs, rhs, dest=names[2])

    message = "division by zero" if op == "div" else "modulo by zero"
    with pytest.raises(TrapError, match=message):
        run_program(_single(emit))


DIVISORS = [1, -1, 7, -7, 2**40, -(2**40), 0]
DIVIDENDS = [0, 1, -1, 6, -6, 7, -7, 13, -13, 2**40, -(2**40), 2**41 + 3, -(2**41 + 3)]


@pytest.mark.parametrize("tier", ["cold", "hot"])
@pytest.mark.parametrize("op", ["div", "mod"])
@pytest.mark.parametrize("divisor", DIVISORS)
def test_division_by_an_immediate_matches_the_helpers(op, divisor, tier, force_tier):
    """A nonzero immediate divisor is lowered to inline arithmetic in
    both tiers; it must agree with ``_div``/``_mod``, and zero must still
    trap with the helpers' message, only when executed."""
    force_tier(tier)
    reference = machine._div if op == "div" else machine._mod
    builder = ProgramBuilder()
    fb = builder.function("main", params=["n"])
    fb.branch("eq", "n", 123456789, "divide", "skip")
    fb.label("skip")
    quotient = fb.binop(op, "n", divisor, dest="q")
    fb.ret(quotient)
    fb.label("divide")
    fb.ret(fb.binop(op, "n", divisor, dest="never"))
    program = builder.build()
    for dividend in DIVIDENDS:
        if divisor == 0:
            with pytest.raises(TrapError) as trapped:
                reference(dividend, divisor)
            with pytest.raises(TrapError, match=str(trapped.value)):
                run_program(program, [dividend])
        else:
            assert run_program(program, [dividend]).value == reference(dividend, divisor)


@pytest.mark.parametrize("immediate", [False, True])
@pytest.mark.parametrize("op,a,expected", UNOP_CASES)
def test_unops(op, a, expected, immediate):
    def emit(fb, names):
        src = a if immediate else fb.const(a, dest=names[0])
        fb.label("use 'it'\n")
        return fb.unop(op, src, dest=names[1])

    assert run_program(_single(emit)).value == expected


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("op,a,b,expected", CMP_CASES)
def test_cmp_and_branch(op, a, b, expected, placement):
    def emit(fb, names):
        lhs, rhs = _operands(fb, a, b, placement, names)
        return fb.cmp(op, lhs, rhs, dest=names[2])

    assert run_program(_single(emit)).value == expected

    builder = ProgramBuilder()
    fb = builder.function("main")
    lhs, rhs = _operands(fb, a, b, placement, NASTY[3:5])
    fb.branch(op, lhs, rhs, "yes 'taken'", 'no "fall"\n')
    fb.label("yes 'taken'")
    fb.ret(1)
    fb.label('no "fall"\n')
    fb.ret(0)
    program = builder.build()
    validate_program(program)
    machine = Machine(program, log_branches=True)
    assert machine.run().value == expected
    assert branch_events(machine) == [(BranchSite("main", "use 'them'\n"), bool(expected), 0)]


def test_memory_io_and_calls_with_nasty_names():
    builder = ProgramBuilder()
    helper = builder.function("hélper\n'", params=["p'q", 'p"q'])
    total = helper.add("p'q", 'p"q', dest="back\\slash")
    helper.output(total)
    helper.ret(total)
    fb = builder.function("main", params=["ünï\n"])
    base = fb.alloc(4, dest="it's")
    fb.store(base, "ünï\n", offset=2)
    loaded = fb.load(base, offset=2, dest='say "hi"')
    read = fb.input(dest="'); raise SystemExit('")
    moved = fb.move(read, dest="env")
    result = fb.call("hélper\n'", [loaded, moved], dest="r0")
    fb.call("hélper\n'", [result, -1], void=True)
    fb.ret(result)
    program = builder.build()
    validate_program(program)
    machine_ = Machine(program, [30])
    result = machine_.run(12)
    assert result.value == 42
    assert result.output == [42, 41]
    assert machine_.memory[0x10000 + 2] == 12


def test_replicated_copies_share_compiled_segments():
    """Blocks that differ only in their terminator targets compile once."""
    builder = ProgramBuilder()
    fb = builder.function("main", params=["n"])
    fb.jump("a")
    for label, target in (("a", "b"), ("b", "c")):
        fb.label(label)
        fb.add("n", 1, dest="n")
        fb.branch("lt", "n", 100, target, "done")
    fb.label("c")
    fb.ret("n")
    fb.label("done")
    fb.ret(0)
    program = builder.build()
    function = program.main_function()
    a, b = function.blocks["a"], function.blocks["b"]
    exit = ("br", "lt", "n", 100)
    assert machine._segment(tuple(a.instrs), exit) is machine._segment(tuple(b.instrs), exit)
    assert run_program(program, [0]).value == 2


def test_compiled_cache_is_bounded(monkeypatch):
    programs = [random_program(seed, helpers=2) for seed in range(10)]
    expected = [Machine(p.copy(), max_steps=2_000_000).run(3) for p in programs]
    monkeypatch.setattr(machine, "_compiled", {})
    monkeypatch.setattr(machine, "MAX_COMPILED_SEGMENTS", 16)
    for program, reference in zip(programs, expected):
        # Evicted segments recompile transparently.
        result = Machine(program, max_steps=2_000_000).run(3)
        assert (result.value, result.output, result.steps) == (
            reference.value, reference.output, reference.steps
        )
        assert len(machine._compiled) <= 16


def test_cache_eviction_under_concurrent_runs(monkeypatch):
    """Threads sharing a tiny cache evict each other's segments
    constantly; every run must still be exact and the bound must hold."""
    programs = [random_program(seed, helpers=2) for seed in range(6)]
    expected = [Machine(p.copy(), max_steps=2_000_000).run(5) for p in programs]
    monkeypatch.setattr(machine, "_compiled", {})
    monkeypatch.setattr(machine, "MAX_COMPILED_SEGMENTS", 8)
    errors = []

    def worker(index):
        try:
            for _ in range(5):
                program = programs[index % len(programs)]
                result = Machine(program, max_steps=2_000_000).run(5)
                reference = expected[index % len(programs)]
                assert (result.value, result.output, result.steps) == (
                    reference.value, reference.output, reference.steps
                )
                assert len(machine._compiled) <= 8
        except Exception as error:  # reported to the main thread below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _predicting_all(program, predict):
    """A copy of *program* with *predict* planted on every branch."""
    clone = program.copy()
    for function in clone:
        for block in function:
            if block.branch is not None:
                block.terminator = dataclasses.replace(block.branch, predict=predict)
    return clone


@pytest.mark.parametrize(
    "flags",
    [{}, {"log_branches": True, "track_history_bits": 8}, {"log_transfers": True}],
    ids=["plain", "branch-log", "transfer-log"],
)
def test_planted_predictions_share_one_hot_function(force_tier, flags):
    """Neither tier reads ``predict``: programs that differ only in their
    planted bits compile once and run alike."""
    force_tier("hot")

    def observe(program):
        run = Machine(program, [5] * 64, **flags)
        result = run.run(4)
        branches, transfers = run.branch_log, run.transfer_log
        logs = (
            None if branches is None else (list(branches.codes), list(branches.history or ())),
            None if transfers is None else list(transfers.codes),
        )
        return result.value, result.output, result.steps, result.branches, logs

    program = random_program(11, helpers=1)
    first = observe(_predicting_all(program, True))
    entries = dict(machine._hot_functions.entries)
    second = observe(_predicting_all(program, False))
    assert entries
    assert machine._hot_functions.entries == entries
    assert first == second
