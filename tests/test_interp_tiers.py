"""The interpreter's two tiers agree on every observable.

A cold activation walks content-keyed segments; a hot one runs its
function's generated generator, entered at activation start or, on
tier-up, at a merge point with its registers loaded from the register
dict.  Every observable must be the same either way: value, output,
steps, branches, the raw branch log with its history, the raw transfer
log, memory and every trap, including :class:`FuelExhausted` at the
exact step after the same side effects, with the same events logged
before it.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import entered_blocks
from repro.interp import FuelExhausted, Machine, TrapError, machine
from repro.ir import parse_program
from repro.workloads import random_program

TIERS = ["cold", "hot"]


def observe(program, args, max_steps=2_000_000):
    """Everything one fully instrumented run shows, trap included."""
    run = Machine(
        program,
        max_steps=max_steps,
        track_history_bits=8,
        log_branches=True,
        log_transfers=True,
    )
    try:
        result = run.run(*args)
        outcome = (result.value, result.steps, result.branches)
    except (TrapError, KeyError) as error:
        outcome = (type(error), str(error))
    branches, transfers = run.branch_log, run.transfer_log
    logs = (list(branches.codes), list(branches.history), list(transfers.codes))
    return outcome, run.output, logs, run.memory


# -- traps -----------------------------------------------------------------------

TRAPS = [
    # undefined register read in a merge point
    (
        "func main(n) {\nentry:\n  br lt n, 1 ? a : b\n"
        "a:\n  x = const 1\n  jump b\nb:\n  y = add x, 1\n  ret y\n}",
        [5],
        "main:b: read of undefined register 'x'",
    ),
    # ... in call arguments and in a return value
    (
        "func id(v) {\nentry:\n  ret v\n}\n"
        "func main(n) {\nentry:\n  br lt n, 1 ? a : b\n"
        "a:\n  x = const 1\n  jump b\nb:\n  y = call id(x)\n  ret z\n}",
        [5],
        "main:b: read of undefined register 'x'",
    ),
    (
        "func id(v) {\nentry:\n  ret v\n}\n"
        "func main(n) {\nentry:\n  br lt n, 1 ? a : b\n"
        "a:\n  x = const 1\n  jump b\nb:\n  y = call id(x)\n  ret z\n}",
        [0],
        "main:b: read of undefined register 'z'",
    ),
    # both operands of a store undefined: the address is read first
    (
        "func main(n) {\nentry:\n  br lt n, 1 ? a : b\n"
        "a:\n  p = const 1\n  v = const 2\n  jump b\nb:\n  store p, v, 0\n  ret 0\n}",
        [5],
        "main:b: read of undefined register 'p'",
    ),
    # void return into a destination
    (
        "func nothing() {\nentry:\n  ret\n}\n"
        "func main(n) {\nentry:\n  jump loop\nloop:\n  x = call nothing()\n  ret x\n}",
        [0],
        "void return but caller expects a value in 'x'",
    ),
    # unknown callee and bad arity, after the segment before the call ran
    (
        "func main(n) {\nentry:\n  jump loop\nloop:\n  out n\n  x = call ghost(n)\n  ret x\n}",
        [3],
        "call to unknown function 'ghost'",
    ),
    (
        "func two(a, b) {\nentry:\n  ret a\n}\n"
        "func main(n) {\nentry:\n  jump loop\nloop:\n  out n\n  x = call two(n)\n  ret x\n}",
        [3],
        "bad arity calling 'two'",
    ),
    # division by a zero register
    (
        "func main(n) {\nentry:\n  z = const 0\n  jump loop\nloop:\n  q = div n, z\n  ret q\n}",
        [3],
        "division by zero",
    ),
]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("text,args,message", TRAPS)
def test_traps_match_on_each_tier(text, args, message, tier, force_tier):
    program = parse_program(text)
    force_tier("cold")
    reference = observe(program, args)
    assert reference[0] == (TrapError, message)
    force_tier(tier)
    # The first hot run tiers up mid-run; the second starts hot.
    assert observe(program, args) == reference
    assert observe(program, args) == reference


@pytest.mark.parametrize("tier", TIERS)
def test_malformed_blocks_and_missing_labels_match_on_each_tier(tier, force_tier):
    text = "func main(n) {\nentry:\n  jump loop\nloop:\n  out n\n  jump next\nnext:\n  ret n\n}"
    broken = parse_program(text)
    broken.main_function().blocks["next"].terminator = None
    smuggled = parse_program(text)
    blocks = smuggled.main_function().blocks
    blocks["next"].instrs.append(blocks["loop"].terminator)
    missing = parse_program(text)
    del missing.main_function().blocks["next"]
    cases = [(broken, "has no terminator"), (smuggled, "cannot execute"), (missing, "'next'")]
    for program, message in cases:
        force_tier("cold")
        reference = observe(program, [4])
        assert message in reference[0][1]
        force_tier(tier)
        assert observe(program, [4]) == reference
        assert observe(program, [4]) == reference


@pytest.mark.parametrize("tier", TIERS)
def test_fuel_boundary_with_calls_mid_block_on_each_tier(tier, force_tier):
    program = parse_program(
        "func inc(v) {\nentry:\n  out v\n  w = add v, 1\n  ret w\n}\n"
        "func main() {\nentry:\n  a = const 1\n  b = call inc(a)\n  out b\n"
        "  c = call inc(b)\n  d = add b, c\n  out d\n  ret d\n}"
    )
    writes = [(3, 1), (6, 2), (8, 2), (12, 5)]
    force_tier(tier)
    for _ in range(2):
        for budget in range(13):
            run = Machine(program, max_steps=budget)
            with pytest.raises(FuelExhausted, match=f"exceeded {budget} steps"):
                run.run()
            assert run.output == [word for step, word in writes if step <= budget]
        assert Machine(program, max_steps=13).run().output == [1, 2, 2, 5]


@pytest.mark.parametrize("tier", TIERS)
@given(st.integers(0, 200), st.integers(0, 20))
@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_fuel_boundary_is_exact_on_each_tier(tier, force_tier, seed, arg):
    """As ``test_properties.test_fuel_boundary_is_exact``, per tier: the
    exact budget succeeds identically, one step less runs everything but
    the final ``ret`` and raises."""
    program = random_program(seed, helpers=seed % 3)
    force_tier("cold")
    full = observe(program, [arg])
    steps = full[0][1]
    force_tier(tier)
    assert observe(program, [arg], max_steps=steps) == full
    assert observe(program, [arg], max_steps=steps) == full
    short = observe(program, [arg], max_steps=steps - 1)
    assert short[0] == (FuelExhausted, f"exceeded {steps - 1} steps")
    assert short[1] == full[1]


# -- tier-up ---------------------------------------------------------------------


def transfer_counts(program, args):
    """For each block ``main`` enters in a run, the instructions
    ``main`` had run before it: a cold budget of each count tiers
    ``main`` up at that transfer."""
    run = Machine(program, max_steps=2_000_000, log_transfers=True)
    try:
        run.run(*args)
    except TrapError:
        pass
    function = program.main_function()
    counts, ran = set(), 0
    for name, label in entered_blocks(run):
        if name == function.name:
            counts.add(ran)
            ran += len(function.blocks[label].instrs) + 1
    return sorted(counts)


@given(st.integers(0, 200), st.integers(0, 6))
@settings(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_tier_up_at_every_transfer_matches_the_cold_tier(force_tier, monkeypatch, seed, arg):
    program = random_program(seed, helpers=seed % 3)
    force_tier("cold")
    reference = observe(program, [arg])
    size = program.main_function().size()
    cache = machine._HotCache()
    monkeypatch.setattr(machine, "_hot_functions", cache)
    for count in transfer_counts(program, [arg]):
        # main's cold budget is exactly `count`; helpers' scale with size.
        monkeypatch.setattr(machine, "HOT_RATIO", Fraction(count, size))
        # Keep the compiled functions, but make every run find them only
        # at tier-up, never at activation entry.
        cache.shapes.clear()
        assert observe(program, [arg]) == reference


def test_a_function_below_its_budget_is_never_compiled(force_tier, monkeypatch):
    force_tier("cold")
    monkeypatch.setattr(machine, "HOT_RATIO", 200)
    program = parse_program(
        "func main(n) {\nentry:\n  i = const 0\n  jump head\n"
        "head:\n  br lt i, n ? body : done\nbody:\n  i = add i, 1\n  jump head\n"
        "done:\n  ret i\n}"
    )
    budget = 200 * program.main_function().size()
    short = Machine(program).run(budget // 4 - 10)
    assert short.steps < budget
    assert machine._hot_functions.entries == {}
    Machine(program).run(budget)
    assert [key[2][0] for key in machine._hot_functions.entries] == ["main"]


def test_hot_cache_is_bounded(force_tier, monkeypatch):
    programs = [random_program(seed, helpers=2) for seed in range(12)]
    force_tier("cold")
    references = [observe(program, [3]) for program in programs]
    force_tier("hot")
    monkeypatch.setattr(machine, "MAX_HOT_INSTRUCTIONS", 64)
    for program, reference in zip(programs * 2, references * 2):
        # Evicted functions recompile transparently.
        assert observe(program, [3]) == reference
        assert machine._hot_functions.size <= 64
