"""Interpreter tests: semantics of every instruction and fault."""

import pytest

from conftest import branch_events
from repro.interp import FuelExhausted, Machine, TrapError, run_program
from repro.ir import Jump, parse_program, validate_program


def run_body(body: str, args=(), input_values=()):
    program = parse_program(f"func main() {{\nentry:\n{body}\n}}")
    return run_program(program, args, input_values)


class TestArithmetic:
    def test_add(self):
        assert run_body("  x = add 2, 3\n  ret x").value == 5

    def test_sub(self):
        assert run_body("  x = sub 2, 5\n  ret x").value == -3

    def test_mul(self):
        assert run_body("  x = mul -4, 3\n  ret x").value == -12

    def test_div_truncates_toward_zero(self):
        assert run_body("  x = div 7, 2\n  ret x").value == 3
        assert run_body("  x = div -7, 2\n  ret x").value == -3
        assert run_body("  x = div 7, -2\n  ret x").value == -3

    def test_mod_matches_c_semantics(self):
        assert run_body("  x = mod 7, 3\n  ret x").value == 1
        assert run_body("  x = mod -7, 3\n  ret x").value == -1

    def test_div_by_zero_traps(self):
        with pytest.raises(TrapError):
            run_body("  x = div 1, 0\n  ret x")

    def test_mod_by_zero_traps(self):
        with pytest.raises(TrapError):
            run_body("  x = mod 1, 0\n  ret x")

    def test_bitwise(self):
        assert run_body("  x = and 12, 10\n  ret x").value == 8
        assert run_body("  x = or 12, 10\n  ret x").value == 14
        assert run_body("  x = xor 12, 10\n  ret x").value == 6

    def test_shifts(self):
        assert run_body("  x = shl 3, 4\n  ret x").value == 48
        assert run_body("  x = shr 48, 4\n  ret x").value == 3

    def test_shift_amount_masked(self):
        # Shift counts are masked to 6 bits, so 64 behaves like 0.
        assert run_body("  x = shl 1, 64\n  ret x").value == 1

    def test_min_max(self):
        assert run_body("  x = min 3, -2\n  ret x").value == -2
        assert run_body("  x = max 3, -2\n  ret x").value == 3

    def test_unops(self):
        assert run_body("  x = neg 5\n  ret x").value == -5
        assert run_body("  x = not 0\n  ret x").value == -1
        assert run_body("  x = abs -9\n  ret x").value == 9

    def test_cmp_produces_boolean(self):
        assert run_body("  x = cmp lt 1, 2\n  ret x").value == 1
        assert run_body("  x = cmp gt 1, 2\n  ret x").value == 0


class TestMemory:
    def test_uninitialised_memory_reads_zero(self):
        assert run_body("  p = alloc 4\n  x = load p, 0\n  ret x").value == 0

    def test_store_load(self):
        assert (
            run_body(
                "  p = alloc 4\n  store p, 7, 1\n  x = load p, 1\n  ret x"
            ).value
            == 7
        )

    def test_alloc_regions_disjoint(self):
        result = run_body(
            "  p = alloc 2\n  q = alloc 2\n"
            "  store p, 1, 0\n  store q, 2, 0\n"
            "  a = load p, 0\n  b = load q, 0\n"
            "  x = add a, b\n  ret x"
        )
        assert result.value == 3

    def test_negative_alloc_traps(self):
        with pytest.raises(TrapError):
            run_body("  p = alloc -1\n  ret p")


class TestIO:
    def test_input_stream_ordered(self):
        result = run_body(
            "  a = in\n  b = in\n  out b\n  out a\n  ret a",
            input_values=[1, 2],
        )
        assert result.output == [2, 1]

    def test_input_exhausted_traps(self):
        with pytest.raises(TrapError, match="input exhausted"):
            run_body("  a = in\n  ret a")


class TestControlFlow:
    def test_branch_taken(self):
        program = parse_program(
            "func main(n) {\nentry:\n  br gt n, 0 ? pos : neg\n"
            "pos:\n  ret 1\nneg:\n  ret -1\n}"
        )
        assert run_program(program, [5]).value == 1
        assert run_program(program, [-5]).value == -1

    def test_branch_event_reported(self):
        program = parse_program(
            "func main(n) {\nentry:\n  br gt n, 0 ? pos : neg\n"
            "pos:\n  ret 1\nneg:\n  ret -1\n}"
        )
        machine = Machine(program, log_branches=True)
        machine.run(5)
        events = [(str(site), taken) for site, taken, _ in branch_events(machine)]
        assert events == [("main:entry", True)]

    def test_branch_count(self):
        program = parse_program(
            "func main(n) {\nentry:\n  i = move 0\nhead:\n"
            "  br lt i, n ? body : done\nbody:\n  i = add i, 1\n  jump head\n"
            "done:\n  ret i\n}"
        )
        result = run_program(program, [10])
        assert result.branches == 11  # 10 taken + 1 final not-taken

    def test_fuel_limit(self):
        program = parse_program(
            "func main() {\nentry:\n  jump entry\n}"
        )
        with pytest.raises(FuelExhausted):
            Machine(program, max_steps=100).run()

    def test_fuel_boundary_is_exact_with_calls_mid_block(self):
        program = parse_program(
            "func inc(v) {\nentry:\n  out v\n  w = add v, 1\n  ret w\n}\n"
            "func main() {\nentry:\n  a = const 1\n  b = call inc(a)\n  out b\n"
            "  c = call inc(b)\n  d = add b, c\n  out d\n  ret d\n}"
        )
        # Step at which each output word is written, counted by hand.
        writes = [(3, 1), (6, 2), (8, 2), (12, 5)]
        result = Machine(program, max_steps=13).run()
        assert (result.value, result.output, result.steps) == (5, [1, 2, 2, 5], 13)
        for budget in range(13):
            machine = Machine(program, max_steps=budget)
            with pytest.raises(FuelExhausted, match=f"exceeded {budget} steps"):
                machine.run()
            assert machine.output == [word for step, word in writes if step <= budget]

    def test_undefined_register_read_traps(self):
        program = parse_program(
            "func main(n) {\nentry:\n  br lt n, 1 ? a : b\n"
            "a:\n  x = const 1\n  jump b\nb:\n  y = add x, 1\n  ret y\n}"
        )
        validate_program(program)
        assert run_program(program, [0]).value == 2
        with pytest.raises(TrapError, match="main:b: read of undefined register 'x'"):
            run_program(program, [5])

    def test_undefined_register_in_call_and_return_traps(self):
        program = parse_program(
            "func id(v) {\nentry:\n  ret v\n}\n"
            "func main(n) {\nentry:\n  br lt n, 1 ? a : b\n"
            "a:\n  x = const 1\n  jump b\nb:\n  y = call id(x)\n  ret z\n}"
        )
        with pytest.raises(TrapError, match="main:b: read of undefined register 'x'"):
            run_program(program, [5])
        with pytest.raises(TrapError, match="main:b: read of undefined register 'z'"):
            run_program(program, [0])

    def test_malformed_blocks_trap(self):
        # Unvalidated programs: a missing terminator, and a terminator
        # smuggled into the straight-line instructions.
        program = parse_program("func main() {\nentry:\n  ret 1\n}")
        block = program.main_function().entry_block()
        block.terminator = None
        with pytest.raises(TrapError, match="has no terminator"):
            run_program(program)
        block.instrs.append(Jump("entry"))
        with pytest.raises(TrapError, match="cannot execute"):
            run_program(program)

    def test_wrong_arity_traps(self):
        program = parse_program("func main(a, b) {\nentry:\n  ret a\n}")
        with pytest.raises(TrapError):
            run_program(program, [1])

    def test_steps_counted(self):
        result = run_body("  x = const 1\n  y = const 2\n  ret x")
        assert result.steps == 3
