"""Unit tests for the textual parser."""

import pytest

from repro.ir import (
    Alloc,
    BinOp,
    Branch,
    Call,
    Cmp,
    Const,
    In,
    Jump,
    Load,
    Move,
    Out,
    ParseError,
    Return,
    Store,
    UnOp,
    parse_function,
    parse_program,
)


def first_instr(body: str):
    function = parse_function(
        f"func f() {{\nentry:\n  {body}\n  ret\n}}"
    )
    return function.block("entry").instrs[0]


def terminator_of(body: str):
    function = parse_function(f"func f() {{\nentry:\n  {body}\n}}")
    return function.block("entry").terminator


class TestInstructionParsing:
    def test_const(self):
        assert first_instr("x = const 42") == Const("x", 42)

    def test_const_hex(self):
        assert first_instr("x = const 0x10") == Const("x", 16)

    def test_negative_const(self):
        assert first_instr("x = const -5") == Const("x", -5)

    def test_move_register(self):
        assert first_instr("x = move y") == Move("x", "y")

    def test_move_immediate(self):
        assert first_instr("x = move 3") == Move("x", 3)

    def test_binop(self):
        assert first_instr("x = add a, 2") == BinOp("x", "add", "a", 2)

    def test_all_binops_parse(self):
        for op in ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "min", "max"):
            assert first_instr(f"x = {op} 1, 2") == BinOp("x", op, 1, 2)

    def test_unop(self):
        assert first_instr("x = neg y") == UnOp("x", "neg", "y")

    def test_cmp(self):
        assert first_instr("x = cmp lt a, b") == Cmp("x", "lt", "a", "b")

    def test_load(self):
        assert first_instr("x = load p, 4") == Load("x", "p", 4)

    def test_load_negative_offset(self):
        assert first_instr("x = load p, -1") == Load("x", "p", -1)

    def test_store(self):
        assert first_instr("store p, v, 2") == Store("p", "v", 2)

    def test_alloc(self):
        assert first_instr("x = alloc 16") == Alloc("x", 16)

    def test_call_with_result(self):
        assert first_instr("x = call f(a, 1)") == Call("x", "f", ("a", 1))

    def test_call_void(self):
        assert first_instr("call f(a)") == Call(None, "f", ("a",))

    def test_call_no_args(self):
        assert first_instr("x = call f()") == Call("x", "f", ())

    def test_in_out(self):
        assert first_instr("x = in") == In("x")
        assert first_instr("out x") == Out("x")


class TestTerminatorParsing:
    def test_jump(self):
        assert terminator_of("jump entry") == Jump("entry")

    def test_branch(self):
        assert terminator_of("br lt a, 5 ? entry : entry") == Branch(
            "lt", "a", 5, "entry", "entry"
        )

    def test_pointer_branch(self):
        branch = terminator_of("br.ptr eq p, 0 ? entry : entry")
        assert branch.pointer is True

    def test_ret_value(self):
        assert terminator_of("ret x") == Return("x")

    def test_ret_void(self):
        assert terminator_of("ret") == Return(None)


class TestProgramStructure:
    def test_comments_stripped(self):
        program = parse_program(
            "func main() {\nentry:  # a comment\n  ret ; also\n}"
        )
        assert "main" in program.functions

    def test_params_parsed(self):
        program = parse_program("func main(a, b, c) {\nentry:\n  ret\n}")
        assert program.main_function().params == ["a", "b", "c"]

    def test_implicit_fallthrough(self):
        program = parse_program(
            "func main() {\nentry:\n  x = const 1\nnext:\n  ret x\n}"
        )
        assert program.main_function().block("entry").terminator == Jump("next")

    def test_labels_of_replicated_copies(self):
        labels = ["body~0", "body~1.2", "exit@1^even.4", "head@{01,11}.2", "loop@*.0"]
        text = "func main() {\nentry:\n  jump %s\n" % labels[0]
        for label, successor in zip(labels, labels[1:] + ["done"]):
            text += f"{label}:\n  br.t lt 1, 2 ? {successor} : done\n"
        program = parse_program(text + "done:\n  ret\n}")
        function = program.main_function()
        assert [block.label for block in function] == ["entry", *labels, "done"]
        assert function.block("loop@*.0").terminator.taken == "done"

    def test_multiple_functions(self):
        program = parse_program(
            "func main() {\nentry:\n  ret\n}\nfunc helper() {\nentry:\n  ret\n}"
        )
        assert set(program.functions) == {"main", "helper"}


class TestParseErrors:
    def test_unknown_instruction(self):
        with pytest.raises(ParseError):
            parse_program("func main() {\nentry:\n  x = warp 1\n  ret\n}")

    def test_statement_outside_function(self):
        with pytest.raises(ParseError):
            parse_program("x = const 1")

    def test_instruction_before_label(self):
        with pytest.raises(ParseError):
            parse_program("func main() {\n  x = const 1\n}")

    def test_unclosed_function(self):
        with pytest.raises(ParseError):
            parse_program("func main() {\nentry:\n  ret\n")

    def test_nested_function(self):
        with pytest.raises(ParseError):
            parse_program("func a() {\nfunc b() {\n}\n}")

    def test_instruction_after_terminator(self):
        with pytest.raises(ParseError):
            parse_program("func main() {\nentry:\n  ret\n  x = const 1\n}")

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_program("func main() {\nentry:\n  x = bogus 1\n}")
        assert info.value.line_number == 3

    def test_bad_branch_syntax(self):
        with pytest.raises(ParseError):
            parse_program("func main() {\nentry:\n  br lt a ? b : c\n}")

    def test_bad_operand(self):
        with pytest.raises(ParseError):
            parse_program("func main() {\nentry:\n  x = add 1, @@\n  ret\n}")

    def test_store_offset_must_be_immediate(self):
        with pytest.raises(ParseError):
            parse_program("func main() {\nentry:\n  store p, v, q\n  ret\n}")
