"""Hot leaves run in place.

A function without calls compiles to a plain hot function, which a hot
caller, a cold caller, the driver and its own cold activation's tier-up
call directly instead of creating a generator per activation.  Every
observable must be what the cold tier shows, whatever tier the caller
and the leaf are in: value, output, steps, branches, the raw logs,
memory and every trap, including :class:`FuelExhausted` at the exact
step.  A direct call adds at most one host frame.
"""

import inspect
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.interp import Machine, TrapError, machine
from repro.ir import Call, parse_program
from repro.workloads import BENCHMARK_NAMES, get_program, get_workload, random_program
from test_interp_tiers import observe

#: The cold budget that pins a function's tier: never hot, hot from its
#: first activation, or tiering up at its first activation's first
#: transfer into a merge point.
BUDGETS = {"cold": 10**18, "hot": -1, "up": 0}

MIXES = [(caller, leaf) for caller in BUDGETS for leaf in BUDGETS]

LOOP_LEAF = """
func leaf(v) {
entry:
  i = const 0
  s = const 0
  jump head
head:
  br lt i, v ? body : done
body:
  s = add s, i
  out s
  i = add i, 1
  jump head
done:
  ret s
}

func main(n) {
entry:
  k = const 0
  t = const 0
  jump loop
loop:
  br lt k, n ? step : end
step:
  r = call leaf(k)
  t = add t, r
  k = add k, 1
  jump loop
end:
  out t
  ret t
}
"""

#: ``main`` calls ``f(0)``, which is fine, then ``f(1)``, which traps.
CALLS_F_TWICE = """
func main(n) {
entry:
  k = const 0
  jump loop
loop:
  br lt k, 2 ? step : end
step:
  r = call f(k)
  k = add k, 1
  jump loop
end:
  ret k
}
"""

UNDEFINED_IN_LEAF = (
    "func f(v) {\nentry:\n  br lt v, 1 ? a : b\n"
    "a:\n  x = const 1\n  jump b\nb:\n  y = add x, 1\n  ret y\n}\n" + CALLS_F_TWICE
)

MISSING_IN_LEAF = (
    "func f(v) {\nentry:\n  br lt v, 1 ? a : b\n"
    "a:\n  ret v\nb:\n  out v\n  jump gone\ngone:\n  ret v\n}\n" + CALLS_F_TWICE
)

DEEP_WITH_LEAVES = """
func leaf(v) {
entry:
  w = add v, 1
  ret w
}

func sum(k) {
entry:
  br le k, 0 ? base : rec
base:
  ret 0
rec:
  j = call leaf(k)
  k1 = sub k, 1
  rest = call sum(k1)
  total = add rest, j
  ret total
}

func main(n) {
entry:
  r = call sum(n)
  ret r
}
"""


@pytest.fixture
def pin(force_tier, monkeypatch):
    """``pin(tiers)`` empties the hot cache and gives each function of
    later runs the cold budget of its tier in ``tiers`` (by name)."""
    routine = Machine._routine

    def pinned(self, function):
        found = routine(self, function)
        found.left = BUDGETS[self._pinned[function.name]]
        return found

    monkeypatch.setattr(Machine, "_routine", pinned)

    def set_tiers(tiers):
        force_tier("cold")
        monkeypatch.setattr(Machine, "_pinned", tiers, raising=False)

    return set_tiers


def leaf_tiers(program, caller, leaf):
    return {
        function.name: caller if function.name == program.main else leaf
        for function in program
    }


def is_leaf(function) -> bool:
    return not any(isinstance(instr, Call) for block in function for instr in block.instrs)


@pytest.mark.parametrize("caller,leaf", MIXES)
@given(st.integers(0, 200), st.integers(0, 6))
@settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_every_mix_of_caller_and_leaf_tiers_matches_the_cold_tier(pin, caller, leaf, seed, arg):
    program = random_program(seed, helpers=2)
    pin(leaf_tiers(program, "cold", "cold"))
    reference = observe(program, [arg])
    pin(leaf_tiers(program, caller, leaf))
    assert observe(program, [arg]) == reference


@pytest.mark.parametrize("caller,leaf", MIXES)
def test_a_hot_leaf_is_called_in_place(pin, monkeypatch, caller, leaf):
    program = parse_program(LOOP_LEAF)
    pin(leaf_tiers(program, "cold", "cold"))
    reference = observe(program, [6])
    assert reference[0] == (20, 141, 28)
    callers = []
    compile_hot = machine._HotSource.compile

    def recording(source, key):
        run = compile_hot(source, key)
        if not source.leaf:
            return run

        def leaf_function(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return run(*args)

        return leaf_function

    monkeypatch.setattr(machine._HotSource, "compile", recording)
    pin(leaf_tiers(program, caller, leaf))
    assert observe(program, [6]) == reference
    # main tiers up ("up") before its first call.
    site = "_cold" if caller == "cold" else "hot"
    if leaf == "cold":
        assert callers == []
        return
    # The leaf gets its hot tier in its first activation, through the
    # driver; main calls the other five in place.
    first = "_activate" if leaf == "hot" else "_cold"
    assert callers == [first] + [site] * 5
    # The next run finds the leaf's hot tier in the cache when the
    # driver first meets the leaf.
    callers.clear()
    assert observe(program, [6]) == reference
    assert callers == ["_drive"] + [site] * 5


@pytest.mark.parametrize("tier", BUDGETS)
@given(st.integers(0, 200), st.integers(0, 6))
@settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_a_leaf_as_the_entry_function(pin, tier, seed, arg):
    program = random_program(seed)
    assert is_leaf(program.main_function())
    pin({"main": "cold"})
    reference = observe(program, [arg])
    pin({"main": tier})
    assert observe(program, [arg]) == reference
    # The next run finds main's hot tier in the cache and starts hot.
    assert observe(program, [arg]) == reference


@pytest.mark.parametrize("caller,leaf", [("hot", "hot"), ("cold", "hot"), ("up", "up")])
def test_fuel_runs_out_inside_a_direct_leaf_call_at_the_exact_step(pin, caller, leaf):
    program = parse_program(LOOP_LEAF)
    tiers = leaf_tiers(program, caller, leaf)
    for budget in range(141):
        pin(leaf_tiers(program, "cold", "cold"))
        reference = observe(program, [6], max_steps=budget)
        assert reference[0] == (machine.FuelExhausted, f"exceeded {budget} steps")
        pin(tiers)
        assert observe(program, [6], max_steps=budget) == reference


@pytest.mark.parametrize("caller,leaf", MIXES)
@pytest.mark.parametrize(
    "text,error",
    [
        (UNDEFINED_IN_LEAF, (TrapError, "f:b: read of undefined register 'x'")),
        (MISSING_IN_LEAF, (KeyError, "'gone'")),
    ],
    ids=["undefined-register", "missing-label"],
)
def test_traps_inside_a_leaf(pin, caller, leaf, text, error):
    program = parse_program(text)
    if text is MISSING_IN_LEAF:
        del program.functions["f"].blocks["gone"]
    pin(leaf_tiers(program, "cold", "cold"))
    reference = observe(program, [0])
    assert reference[0] == error
    pin(leaf_tiers(program, caller, leaf))
    assert observe(program, [0]) == reference


def test_only_leaves_compile_to_plain_functions(force_tier):
    force_tier("hot")
    programs = [get_program(name) for name in BENCHMARK_NAMES]
    for name, program in zip(BENCHMARK_NAMES, programs):
        args, inputs = get_workload(name).default_args(1)
        Machine(program, inputs).run(*args)
    entries = machine._hot_functions.entries
    leaves = 0
    for (_, _, (_, _, _, blocks)), hot in entries.items():
        calls = any(isinstance(instr, Call) for _, _, instrs, _ in blocks for instr in instrs)
        assert hot.leaf is not calls
        assert inspect.isgeneratorfunction(hot.run) is calls
        leaves += hot.leaf
    assert 0 < leaves < len(entries)


@pytest.mark.parametrize("tier", ["cold", "hot"])
def test_deep_recursion_through_leaf_calls_stays_off_the_host_stack(
    tier, force_tier, monkeypatch
):
    program = parse_program(DEEP_WITH_LEAVES)
    force_tier(tier)
    monkeypatch.setattr(machine, "_compiled", {})
    depth = 50_000
    expected = depth * (depth + 1) // 2 + depth
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    # Compiling needs stack of its own: a shallow run first compiles
    # every segment and, in the hot tier, every hot function.
    assert Machine(program).run(10).value == 65
    limit = sys.getrecursionlimit()
    # Room for the run, the driver, one activation, one leaf and the
    # cold tier's block decoding below it, far too little for host
    # recursion per IR frame.
    sys.setrecursionlimit(frames + 50)
    try:
        assert Machine(program).run(depth).value == expected
    finally:
        sys.setrecursionlimit(limit)
