"""Unit tests for the instruction set."""

import dataclasses

import pytest

from repro.ir import (
    Alloc,
    BinOp,
    Branch,
    Call,
    Cmp,
    CMP_NEGATE,
    CMPOPS,
    Const,
    In,
    IRError,
    Jump,
    Load,
    Move,
    Out,
    Return,
    Store,
    UnOp,
    is_reg,
    retarget,
)


class TestOperandHelpers:
    def test_register_operand(self):
        assert is_reg("r1")

    def test_immediate_operand(self):
        assert not is_reg(42)

    def test_negative_immediate(self):
        assert not is_reg(-3)


class TestUsesDefs:
    def test_const_defs(self):
        assert Const("x", 5).defs() == ("x",)
        assert Const("x", 5).uses() == ()

    def test_move_register(self):
        instr = Move("a", "b")
        assert instr.uses() == ("b",)
        assert instr.defs() == ("a",)

    def test_move_immediate_has_no_uses(self):
        assert Move("a", 7).uses() == ()

    def test_binop_mixed_operands(self):
        instr = BinOp("d", "add", "x", 3)
        assert instr.uses() == ("x",)
        assert instr.defs() == ("d",)

    def test_binop_two_registers(self):
        assert BinOp("d", "mul", "x", "y").uses() == ("x", "y")

    def test_unop(self):
        instr = UnOp("d", "neg", "s")
        assert instr.uses() == ("s",)
        assert instr.defs() == ("d",)

    def test_cmp(self):
        instr = Cmp("d", "lt", "a", "b")
        assert instr.uses() == ("a", "b")
        assert instr.defs() == ("d",)

    def test_load(self):
        instr = Load("d", "p", 4)
        assert instr.uses() == ("p",)
        assert instr.defs() == ("d",)

    def test_store_defines_nothing(self):
        instr = Store("p", "v", 0)
        assert instr.uses() == ("p", "v")
        assert instr.defs() == ()

    def test_alloc(self):
        assert Alloc("d", "n").uses() == ("n",)
        assert Alloc("d", 8).uses() == ()

    def test_call_with_dest(self):
        instr = Call("d", "f", ("x", 1, "y"))
        assert instr.uses() == ("x", "y")
        assert instr.defs() == ("d",)

    def test_void_call(self):
        assert Call(None, "f", ()).defs() == ()

    def test_in_out(self):
        assert In("d").defs() == ("d",)
        assert Out("v").uses() == ("v",)
        assert Out(3).uses() == ()

    def test_return_value(self):
        assert Return("v").uses() == ("v",)
        assert Return(None).uses() == ()


class TestValidation:
    def test_bad_binop_rejected(self):
        with pytest.raises(IRError):
            BinOp("d", "frobnicate", 1, 2)

    def test_bad_unop_rejected(self):
        with pytest.raises(IRError):
            UnOp("d", "sqrt", 1)

    def test_bad_cmp_rejected(self):
        with pytest.raises(IRError):
            Cmp("d", "between", 1, 2)

    def test_bad_branch_op_rejected(self):
        with pytest.raises(IRError):
            Branch("almost", 1, 2, "a", "b")


class TestTerminators:
    def test_jump_targets(self):
        assert Jump("next").targets() == ("next",)

    def test_branch_targets_order(self):
        branch = Branch("lt", "a", "b", "yes", "no")
        assert branch.targets() == ("yes", "no")

    def test_return_has_no_targets(self):
        assert Return(None).targets() == ()

    def test_branch_negation_swaps_targets(self):
        branch = Branch("lt", "a", "b", "yes", "no", predict=True)
        flipped = branch.negated()
        assert flipped.op == "ge"
        assert flipped.taken == "no"
        assert flipped.not_taken == "yes"
        assert flipped.predict is False

    def test_branch_negation_without_prediction(self):
        assert Branch("eq", 1, 2, "a", "b").negated().predict is None

    def test_negation_is_involutive_on_ops(self):
        for op in CMPOPS:
            assert CMP_NEGATE[CMP_NEGATE[op]] == op

    def test_retarget_jump(self):
        jump = retarget(Jump("old"), lambda l: "new" if l == "old" else l)
        assert jump.target == "new"

    def test_retarget_branch_partial(self):
        branch = Branch("eq", 1, 1, "a", "b")
        out = retarget(branch, lambda l: "a2" if l == "a" else l)
        assert out.taken == "a2"
        assert out.not_taken == "b"

    def test_retarget_preserves_metadata(self):
        branch = Branch("eq", 1, 1, "a", "b", pointer=True, predict=False)
        out = retarget(branch, lambda l: l)
        assert out.pointer is True
        assert out.predict is False

    def test_retarget_copies_every_field(self):
        # retarget builds terminators field by field; a new field must
        # be added there too.
        assert [f.name for f in dataclasses.fields(Jump)] == ["target"]
        assert [f.name for f in dataclasses.fields(Branch)] == [
            "op", "lhs", "rhs", "taken", "not_taken", "pointer", "predict",
        ]
        branch = Branch("le", "x", 7, "a", "b", pointer=True, predict=True)
        out = retarget(branch, {"a": "a2", "b": "b2"}.get)
        assert out == dataclasses.replace(branch, taken="a2", not_taken="b2")
        assert type(out) is Branch
        assert retarget(Jump("a"), {"a": "a2"}.get) == Jump("a2")

    def test_retarget_return_noop(self):
        ret = Return("v")
        assert retarget(ret, lambda l: "x") is ret


class TestImmutability:
    def test_instructions_are_frozen(self):
        instr = Const("x", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            instr.value = 2

    def test_replace_builds_new_instance(self):
        branch = Branch("eq", 1, 1, "a", "b")
        annotated = dataclasses.replace(branch, predict=True)
        assert branch.predict is None
        assert annotated.predict is True
