"""Unit tests for blocks, functions, programs and branch sites."""

import pytest

from repro.ir import (
    BasicBlock,
    Branch,
    BranchSite,
    Const,
    Function,
    IRError,
    Jump,
    Program,
    Return,
    format_program,
    parse_program,
)


def make_function() -> Function:
    function = Function("f", ["n"])
    entry = BasicBlock("entry", [Const("x", 1)], Branch("lt", "x", "n", "a", "b"))
    function.add_block(entry)
    function.add_block(BasicBlock("a", [], Jump("b")))
    function.add_block(BasicBlock("b", [], Return("x")))
    return function


class TestBasicBlock:
    def test_successors_of_branch(self):
        block = BasicBlock("x", [], Branch("eq", 1, 1, "a", "b"))
        assert block.successors() == ("a", "b")

    def test_successors_requires_terminator(self):
        with pytest.raises(IRError):
            BasicBlock("x").successors()

    def test_branch_property(self):
        block = BasicBlock("x", [], Jump("a"))
        assert block.branch is None
        block2 = BasicBlock("y", [], Branch("eq", 1, 1, "a", "b"))
        assert block2.branch is block2.terminator

    def test_size_counts_terminator(self):
        block = BasicBlock("x", [Const("a", 1), Const("b", 2)], Return(None))
        assert block.size() == 3

    def test_copy_is_independent(self):
        block = BasicBlock("x", [Const("a", 1)], Return(None))
        clone = block.copy("y")
        clone.instrs.append(Const("b", 2))
        assert len(block.instrs) == 1
        assert clone.label == "y"

    def test_copy_of_a_copy_keeps_the_first_origin(self):
        block = BasicBlock("x", [], Return(None))
        assert block.origin == "x"
        grandchild = block.copy("y").copy("z")
        assert (grandchild.label, grandchild.origin) == ("z", "x")


class TestFunction:
    def test_first_block_becomes_entry(self):
        assert make_function().entry == "entry"

    def test_duplicate_label_rejected(self):
        function = make_function()
        with pytest.raises(IRError):
            function.add_block(BasicBlock("a"))

    def test_block_lookup(self):
        assert make_function().block("a").label == "a"

    def test_missing_block_raises(self):
        with pytest.raises(IRError):
            make_function().block("nope")

    def test_remove_block(self):
        function = make_function()
        function.remove_block("a")
        assert "a" not in function.blocks

    def test_cannot_remove_entry(self):
        with pytest.raises(IRError):
            make_function().remove_block("entry")

    def test_size(self):
        assert make_function().size() == 4

    def test_branch_blocks(self):
        assert [b.label for b in make_function().branch_blocks()] == ["entry"]

    def test_fresh_label_avoids_collisions(self):
        function = make_function()
        assert function.fresh_label("new") == "new"
        label = function.fresh_label("a")
        assert label != "a" and label not in function.blocks

    def test_copy_deep_enough(self):
        function = make_function()
        clone = function.copy()
        clone.block("a").instrs.append(Const("z", 0))
        assert len(function.block("a").instrs) == 0

    def test_copy_keeps_origins(self):
        function = make_function()
        function.blocks["a.1"] = function.block("a").copy("a.1")
        clone = function.copy()
        assert {b.label: b.origin for b in clone} == {b.label: b.origin for b in function}
        assert clone.block("a.1").origin == "a"


class TestProgram:
    def test_add_and_lookup(self):
        program = Program()
        program.add_function(make_function())
        assert program.function("f").name == "f"

    def test_duplicate_function_rejected(self):
        program = Program()
        program.add_function(make_function())
        with pytest.raises(IRError):
            program.add_function(make_function())

    def test_missing_function_raises(self):
        with pytest.raises(IRError):
            Program().function("ghost")

    def test_branch_sites(self):
        program = Program(main="f")
        program.add_function(make_function())
        assert program.branch_sites() == [BranchSite("f", "entry")]

    def test_size_sums_functions(self):
        program = Program(main="f")
        program.add_function(make_function())
        assert program.size() == 4

    def test_copy_independent(self):
        program = Program(main="f")
        program.add_function(make_function())
        clone = program.copy()
        clone.function("f").block("a").instrs.append(Const("q", 1))
        assert len(program.function("f").block("a").instrs) == 0

    def test_copy_keeps_origins(self):
        program = Program(main="f")
        function = program.add_function(make_function())
        function.blocks["a.1"] = function.block("a").copy("a.1")
        assert program.copy().function("f").block("a.1").origin == "a"

    def test_printing_drops_origins(self):
        program = Program(main="f")
        function = program.add_function(make_function())
        function.blocks["a.1"] = function.block("a").copy("a.1")
        parsed = parse_program(format_program(program), main="f")
        assert [(b.label, b.origin) for b in parsed.function("f")] == [
            (label, label) for label in function.blocks
        ]
        assert format_program(parsed) == format_program(program)


class TestBranchSite:
    def test_accessors(self):
        site = BranchSite("f", "b1")
        assert site.function == "f"
        assert site.block == "b1"

    def test_equality_and_hash(self):
        assert BranchSite("f", "b") == BranchSite("f", "b")
        assert hash(BranchSite("f", "b")) == hash(("f", "b"))

    def test_tuple_compatibility(self):
        assert BranchSite("f", "b") == ("f", "b")

    def test_str(self):
        assert str(BranchSite("f", "b")) == "f:b"

    def test_ordering(self):
        assert BranchSite("a", "z") < BranchSite("b", "a")
