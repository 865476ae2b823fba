"""Interpreter tests: calls, recursion and cross-function behaviour."""

import pytest

from conftest import branch_events
from repro.interp import Machine, TrapError, run_program
from repro.ir import parse_program


def test_simple_call(recursive_sum):
    assert run_program(recursive_sum, [10]).value == 55


def test_deep_recursion_uses_no_host_stack(recursive_sum):
    # 50k frames would overflow CPython's recursion limit if the
    # interpreter recursed natively.
    assert run_program(recursive_sum, [50_000]).value == 50_000 * 50_001 // 2


def test_mutual_recursion():
    program = parse_program(
        """
func is_even(n) {
entry:
  br eq n, 0 ? yes : recurse
yes:
  ret 1
recurse:
  m = sub n, 1
  r = call is_odd(m)
  ret r
}

func is_odd(n) {
entry:
  br eq n, 0 ? no : recurse
no:
  ret 0
recurse:
  m = sub n, 1
  r = call is_even(m)
  ret r
}

func main(n) {
entry:
  r = call is_even(n)
  ret r
}
"""
    )
    assert run_program(program, [10]).value == 1
    assert run_program(program, [7]).value == 0


def test_registers_are_function_local():
    program = parse_program(
        """
func clobber() {
entry:
  x = const 999
  ret x
}

func main() {
entry:
  x = const 1
  y = call clobber()
  ret x
}
"""
    )
    assert run_program(program).value == 1


def test_memory_is_shared_across_functions():
    program = parse_program(
        """
func writer(p) {
entry:
  store p, 77, 0
  ret
}

func main() {
entry:
  p = alloc 1
  call writer(p)
  x = load p, 0
  ret x
}
"""
    )
    assert run_program(program).value == 77


def test_void_return_into_dest_traps():
    program = parse_program(
        """
func nothing() {
entry:
  ret
}

func main() {
entry:
  x = call nothing()
  ret x
}
"""
    )
    with pytest.raises(TrapError):
        run_program(program)


def test_call_unknown_function_traps():
    # The validator would catch this; the interpreter must too when run
    # on an unvalidated program.
    program = parse_program("func main() {\nentry:\n  x = call ghost()\n  ret x\n}")
    with pytest.raises(TrapError):
        run_program(program)


def test_branch_events_cross_functions(recursive_sum):
    machine = Machine(recursive_sum, log_branches=True)
    machine.run(3)
    events = [site.function for site, _, _ in branch_events(machine)]
    assert set(events) == {"sum"}
    assert len(events) == 4  # n=3,2,1 recurse + n=0 base


def test_machine_call_alternate_entry(recursive_sum):
    machine = Machine(recursive_sum)
    assert machine.call("sum", [4]).value == 10
