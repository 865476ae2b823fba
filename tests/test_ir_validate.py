"""Validator tests: every invariant has a failing example, and the fast
validator agrees with a plain per-block walk."""

import dataclasses
from typing import List, Set

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import replication, workloads
from repro.ir import (
    BasicBlock,
    Branch,
    Call,
    Const,
    Function,
    Jump,
    Program,
    Return,
    ValidationError,
    parse_program,
    retarget,
    validate_program,
)
from repro.ir import validate
from repro.workloads import random_program


def empty_main() -> Program:
    program = Program()
    function = Function("main")
    function.add_block(BasicBlock("entry", [], Return(None)))
    program.add_function(function)
    return program


def test_valid_program_passes():
    validate_program(empty_main())


def test_missing_entry_function():
    program = Program(main="main")
    function = Function("other")
    function.add_block(BasicBlock("entry", [], Return(None)))
    program.add_function(function)
    with pytest.raises(ValidationError, match="missing entry function"):
        validate_program(program)


def test_block_without_terminator():
    program = empty_main()
    program.function("main").add_block(BasicBlock("hole", [Const("x", 1)]))
    with pytest.raises(ValidationError, match="no terminator"):
        validate_program(program)


def test_jump_to_unknown_block():
    program = empty_main()
    program.function("main").add_block(BasicBlock("bad", [], Jump("ghost")))
    with pytest.raises(ValidationError, match="unknown"):
        validate_program(program)


def test_branch_to_unknown_block():
    program = empty_main()
    program.function("main").add_block(
        BasicBlock("bad", [], Branch("eq", 1, 1, "entry", "ghost"))
    )
    with pytest.raises(ValidationError, match="unknown"):
        validate_program(program)


def test_undefined_register_use():
    program = empty_main()
    block = program.function("main").block("entry")
    block.instrs.append(Const("x", 1))
    block.terminator = Return("never_defined")
    with pytest.raises(ValidationError, match="undefined"):
        validate_program(program)


def test_parameters_count_as_defined():
    program = parse_program("func main(n) {\nentry:\n  ret n\n}")
    validate_program(program)


def test_call_to_unknown_function():
    program = empty_main()
    program.function("main").block("entry").instrs.append(Call("x", "ghost", ()))
    with pytest.raises(ValidationError, match="unknown function"):
        validate_program(program)


def test_call_arity_mismatch():
    program = parse_program(
        "func main() {\nentry:\n  x = call helper(1, 2)\n  ret\n}\n"
        "func helper(a) {\nentry:\n  ret a\n}"
    )
    with pytest.raises(ValidationError, match="expected 1"):
        validate_program(program)


def test_multiple_errors_reported_together():
    program = empty_main()
    function = program.function("main")
    function.add_block(BasicBlock("one", [], Jump("ghost1")))
    function.add_block(BasicBlock("two", [], Jump("ghost2")))
    with pytest.raises(ValidationError) as info:
        validate_program(program)
    assert "ghost1" in str(info.value) and "ghost2" in str(info.value)


# -- the fast validator against the reference walk --------------------------


def reference_errors(program: Program) -> List[str]:
    """The validator as a plain per-block walk: every violation worded,
    in block order.  The fast validator must accept exactly the programs
    this finds nothing in, and raise its errors joined by "; "."""
    errors: List[str] = []
    if program.main not in program.functions:
        errors.append(f"missing entry function {program.main!r}")
    for function in program:
        where = f"function {function.name!r}"
        if function.entry is None or function.entry not in function.blocks:
            errors.append(f"{where}: missing entry block")
            continue
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
            instrs = list(block.instrs)
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
    return errors


FAULTS = [
    "none",
    "no-terminator",
    "missing-target",
    "lone-definition",
    "undefined-operand",
    "unknown-callee",
    "wrong-arity",
    "missing-entry-block",
    "missing-main",
]


def _inject(program: Program, fault: str, data) -> Function:
    """Plant *fault* in *program*; returns the function it touched."""
    function = data.draw(st.sampled_from(list(program)), label="function")
    if data.draw(st.booleans(), label="share"):
        # Copies share their instruction objects, as replication's do.
        shared = data.draw(st.sampled_from(list(function.blocks)), label="shared")
        function.blocks[f"{shared}~copy"] = function.blocks[shared].copy(f"{shared}~copy")
    labels = list(function.blocks)
    if fault == "no-terminator":
        function.blocks[data.draw(st.sampled_from(labels))].terminator = None
    elif fault == "missing-target":
        jumping = [label for label in labels if function.blocks[label].terminator.targets()]
        if jumping:
            block = function.blocks[data.draw(st.sampled_from(jumping))]
            old = data.draw(st.sampled_from(block.terminator.targets()))
            block.terminator = retarget(
                block.terminator, lambda label: "ghost" if label == old else label
            )
    elif fault == "lone-definition":
        defining = [
            (label, index)
            for label in labels
            for index, instr in enumerate(function.blocks[label].instrs)
            if instr.defs()
        ]
        if defining:
            label, index = data.draw(st.sampled_from(defining))
            del function.blocks[label].instrs[index]
    elif fault == "undefined-operand":
        branching = [label for label in labels if function.blocks[label].branch is not None]
        if branching:
            block = function.blocks[data.draw(st.sampled_from(branching))]
            field = data.draw(st.sampled_from(["lhs", "rhs"]))
            block.terminator = dataclasses.replace(block.terminator, **{field: "ghost"})
    elif fault in ("unknown-callee", "wrong-arity"):
        block = function.blocks[data.draw(st.sampled_from(labels))]
        position = data.draw(st.integers(0, len(block.instrs)))
        if fault == "unknown-callee":
            call = Call("r", "ghost", ())
        else:
            callee = data.draw(st.sampled_from(list(program)))
            call = Call(None, callee.name, (0,) * (len(callee.params) + 1))
        block.instrs.insert(position, call)
    elif fault == "missing-entry-block":
        function.entry = data.draw(st.sampled_from([None, "nowhere"]))
    elif fault == "missing-main":
        program.main = "absent"
    return function


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    helpers=st.integers(0, 2),
    fault=st.sampled_from(FAULTS),
    data=st.data(),
)
def test_fast_validator_matches_the_reference_walk(seed, helpers, fault, data):
    program = random_program(seed, helpers=helpers)
    touched = _inject(program, fault, data)
    expected = reference_errors(program)
    checks = [lambda: validate_program(program)]
    if program.main in program.functions and not reference_errors(
        _without(program, touched)
    ):
        # What apply_replication checks after its first selection.
        checks.append(lambda: validate._validate_function(program, touched))
    for check in checks:
        if expected:
            with pytest.raises(ValidationError) as info:
                check()
            assert str(info.value) == "; ".join(expected)
        else:
            check()


def _without(program: Program, function: Function) -> Program:
    """*program* minus *function*'s own errors: its other functions, and
    a stand-in that only keeps its name and arity."""
    rest = Program(program.main)
    for other in program:
        if other is function:
            other = Function(other.name, other.params)
            other.add_block(BasicBlock("entry", [], Return(None)))
        rest.functions[other.name] = other
    return rest


def test_a_shared_definition_survives_deleting_one_occurrence():
    program = parse_program("func main() {\nentry:\n  x = const 1\n  jump use\nuse:\n  ret x\n}")
    function = program.main_function()
    function.blocks["spare"] = function.blocks["entry"].copy("spare")
    del function.blocks["entry"].instrs[0]
    validate_program(program)  # the copy still defines x
    del function.blocks["spare"].instrs[0]
    with pytest.raises(ValidationError) as info:
        validate_program(program)
    assert str(info.value) == "; ".join(reference_errors(program))


def test_sweep_validates_each_selection_once_without_the_message_walk(monkeypatch):
    """Over the 46 replicate-sweep prefixes at scale 1 the whole program
    is checked once, after the first selection; each later selection
    checks only its own function, and no error is ever worded."""
    from test_repl_golden import MAX_SIZE_FACTOR, MAX_STATES, SCALE, curve_selections

    checked: List[str] = []
    fast = validate._is_valid

    def counting(program, function):
        checked.append(function.name)
        return fast(program, function)

    def no_wording(program):
        raise AssertionError("a valid program was worded")

    monkeypatch.setattr(validate, "_is_valid", counting)
    monkeypatch.setattr(validate, "_errors", no_wording)
    prefixes = 0
    for name in workloads.BENCHMARK_NAMES:
        program = workloads.get_program(name)
        profile = workloads.get_profile(name, SCALE, 0)
        planner = replication.ReplicationPlanner(program, profile, max_states=MAX_STATES)
        points = replication.tradeoff_curve(planner, max_size_factor=MAX_SIZE_FACTOR)
        for end in range(len(points)):
            selections = curve_selections(planner, points[: end + 1])
            del checked[:]
            replication.apply_replication(program, selections, profile)
            expected = [function.name for function in program] if selections else []
            expected += [site.function for site, _ in selections[1:]]
            assert checked == expected
            prefixes += 1
    assert prefixes == 46
