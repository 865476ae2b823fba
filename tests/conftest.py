"""Shared fixtures: small programs exercising each branch class."""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager

import pytest

from repro.interp import run_program
from repro.ir import BranchSite, parse_program


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the artifact disk cache at a session-temporary directory so
    tests never litter the working tree (and stay warm within a run)."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous

#: A loop with an alternating intra-loop branch — the paper's Figure 1
#: motivating example.
ALTERNATING_LOOP = """
func main(n) {
entry:
  i = move 0
  flip = move 0
  acc = move 0
loop:
  br lt i, n ? body : done
body:
  flip = sub 1, flip
  br eq flip, 1 ? odd : even
odd:
  acc = add acc, 1
  jump cont
even:
  acc = add acc, 2
  jump cont
cont:
  i = add i, 1
  jump loop
done:
  out acc
  ret acc
}
"""

#: A loop with a fixed trip count of 4 nested in an outer loop — the
#: loop-exit machine target.
FIXED_TRIP_LOOP = """
func main(n) {
entry:
  outer = move 0
  acc = move 0
outer_head:
  br lt outer, n ? inner_init : done
inner_init:
  j = move 0
inner_head:
  br lt j, 4 ? inner_body : outer_next
inner_body:
  acc = add acc, j
  j = add j, 1
  jump inner_head
outer_next:
  outer = add outer, 1
  jump outer_head
done:
  out acc
  ret acc
}
"""

#: A correlated pair of branches outside any loop structure is hard to
#: build (everything interesting repeats), so this program re-tests the
#: same condition inside a loop: the second branch is fully determined
#: by the first.
CORRELATED_BRANCHES = """
func main(n) {
entry:
  i = move 0
  acc = move 0
loop:
  br lt i, n ? body : done
body:
  parity = mod i, 2
  br eq parity, 0 ? even1 : odd1
even1:
  acc = add acc, 1
  jump second
odd1:
  acc = add acc, 2
  jump second
second:
  br eq parity, 0 ? even2 : odd2
even2:
  acc = add acc, 10
  jump cont
odd2:
  acc = add acc, 20
  jump cont
cont:
  i = add i, 1
  jump loop
done:
  out acc
  ret acc
}
"""

#: Calls, recursion and memory.
RECURSIVE_SUM = """
func sum(k) {
entry:
  br le k, 0 ? base : rec
base:
  ret 0
rec:
  k1 = sub k, 1
  rest = call sum(k1)
  total = add rest, k
  ret total
}

func main(n) {
entry:
  result = call sum(n)
  out result
  ret result
}
"""


@pytest.fixture
def alternating_loop():
    return parse_program(ALTERNATING_LOOP)


@pytest.fixture
def fixed_trip_loop():
    return parse_program(FIXED_TRIP_LOOP)


@pytest.fixture
def correlated_branches():
    return parse_program(CORRELATED_BRANCHES)


@pytest.fixture
def recursive_sum():
    return parse_program(RECURSIVE_SUM)


@pytest.fixture
def force_tier(monkeypatch):
    """``force_tier("cold")`` keeps every activation in the interpreter's
    cold tier; ``force_tier("hot")`` tiers every function up at its first
    block transfer, so later activations start hot.  Either way the
    process-wide cache of hot functions starts empty."""
    from repro.interp import machine

    def force(tier: str) -> None:
        monkeypatch.setattr(machine, "_hot_functions", machine._HotCache())
        monkeypatch.setattr(machine, "HOT_RATIO", 0 if tier == "hot" else 10**12)

    return force


def run_folding_copies(program, args, input_values=(), max_steps=50_000_000):
    """Run *program* and count each branch's executions and taken
    outcomes, every copy folded onto the site of its original block.

    Returns ``(RunResult, {site: [executions, taken]})``; the counts of
    a replicated program must equal those of the program it copies.
    """
    origins = {
        (function.name, block.label): BranchSite(function.name, block.origin)
        for function in program
        for block in function
    }
    counts = {}

    def on_branch(site, taken):
        cell = counts.setdefault(origins[site], [0, 0])
        cell[0] += 1
        cell[1] += taken

    result = run_program(program, args, input_values, max_steps, on_branch)
    return result, counts


#: The ``disabled`` values :func:`numpy_mode` can run here: the no-numpy
#: route always, the numpy one only where numpy is installed.
NUMPY_MODES = (False, True) if importlib.util.find_spec("numpy") else (True,)


@contextmanager
def numpy_mode(disabled: bool):
    """Force the no-numpy route (*disabled*) or the numpy one within the
    block.

    ``REPRO_NO_NUMPY`` is consulted live, so flipping it is the way to
    exercise the no-numpy route without uninstalling numpy; the previous
    value is restored on exit, so a test never leaks its mode into the
    session (the CI no-numpy leg sets the variable globally).  A view
    uses numpy only once it is loaded, so the numpy side loads it and
    checks that it is loaded, skipping the test where numpy is absent:
    otherwise a parity test could compare the pure route with itself.
    """
    from repro.profiling.columns import get_numpy, loaded_numpy

    saved = os.environ.get("REPRO_NO_NUMPY")
    if disabled:
        os.environ["REPRO_NO_NUMPY"] = "1"
    else:
        os.environ.pop("REPRO_NO_NUMPY", None)
    try:
        if not disabled:
            if get_numpy() is None:
                pytest.skip("numpy unavailable")
            assert loaded_numpy() is not None
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_NUMPY", None)
        else:
            os.environ["REPRO_NO_NUMPY"] = saved
