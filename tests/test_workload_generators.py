"""Random program generator tests."""

import pytest

from repro.interp import Machine
from repro.ir import format_program, parse_program, validate_program
from repro.workloads import random_program


@pytest.mark.parametrize("seed", range(25))
def test_generated_programs_are_valid(seed):
    program = random_program(seed)
    validate_program(program)


@pytest.mark.parametrize("seed", range(25))
def test_generated_programs_terminate(seed):
    program = random_program(seed)
    result = Machine(program, max_steps=2_000_000).run(seed)
    assert result.steps > 0


@pytest.mark.parametrize("seed", range(10))
def test_generated_programs_roundtrip(seed):
    program = random_program(seed)
    text = format_program(program)
    assert format_program(parse_program(text)) == text


def test_generation_is_deterministic():
    a = format_program(random_program(42))
    b = format_program(random_program(42))
    assert a == b


def test_different_seeds_differ():
    texts = {format_program(random_program(seed)) for seed in range(10)}
    assert len(texts) > 5


def test_depth_bounds_nesting():
    shallow = random_program(7, max_depth=1)
    assert len(shallow.main_function().blocks) >= 1
