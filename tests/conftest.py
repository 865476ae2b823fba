"""Shared fixtures: small programs exercising each branch class."""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager

import pytest

from repro.ir import parse_program
from repro.interp import Machine
from repro.profiling import PatternTable, ProfileData
from repro.replication import clear_predictions, fold_mispredictions


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


def branch_events(machine):
    """The latest run's branch log, decoded one event at a time:
    ``(site, taken, history)``, history 0 when the run tracked none."""
    log = machine.branch_log
    sites = log.sites(set(log.codes))
    history = log.history if log.history is not None else [0] * len(log.codes)
    return [(sites[code], bool(code & 1), seen) for code, seen in zip(log.codes, history)]


def entered_blocks(machine):
    """The latest run's transfer log, decoded one transfer at a time:
    the ``(function, label)`` of every block it entered, in order."""
    log = machine.transfer_log
    decoded = log.decode(set(log.codes))
    return [(decoded[code][0], decoded[code][2]) for code in log.codes]


def planned_options(planner):
    """Every option of every plan, comparable across planners."""
    return {
        site: [
            (o.n_states, o.correct, o.extra_size, o.family, o.scored.machine.describe())
            for o in plan.options
        ]
        for site, plan in planner.plans.items()
    }


def run_folding_copies(program, args, input_values=(), max_steps=100_000_000):
    """Run *program* and count each branch's executions and taken
    outcomes, every copy folded onto the site of its original block.

    Returns ``(RunResult, {site: (executions, taken)})``; the counts of
    a replicated program must equal those of the program it copies.
    They are ``measure_annotated``'s per-origin counts with every
    branch predicted not taken, so its mispredictions are the taken
    outcomes; the run stops with ``FuelExhausted`` after *max_steps*.
    """
    unpredicted = program.copy()
    clear_predictions(unpredicted)
    machine = Machine(unpredicted, input_values, max_steps=max_steps, log_branches=True)
    result = machine.run(*args)
    measured = fold_mispredictions(unpredicted, machine.branch_log, result, default=False)
    return measured.result, measured.per_origin


def reference_profile(trace, local_bits=9, global_bits=8):
    """``ProfileData.from_trace`` as a per-event recorder: one pass over
    *trace* building every table, global ones included, in the dict
    order both build routes must reproduce.

    Histories start as all-zero (the convention hardware shift
    registers use), so early events are charged to the zero patterns
    rather than discarded.
    """
    data = ProfileData(local_bits, global_bits)
    site_count = len(trace.sites)
    local_hist = [0] * site_count
    local_counts = [dict() for _ in range(site_count)]
    global_counts = [dict() for _ in range(site_count)]
    totals = [[0, 0] for _ in range(site_count)]
    local_mask = (1 << local_bits) - 1
    global_mask = (1 << global_bits) - 1
    ghist = 0
    for sid, taken in trace.events():
        lhist = local_hist[sid]
        local_counts[sid].setdefault(lhist, [0, 0])[taken] += 1
        global_counts[sid].setdefault(ghist, [0, 0])[taken] += 1
        totals[sid][taken] += 1
        local_hist[sid] = ((lhist << 1) | taken) & local_mask
        ghist = ((ghist << 1) | taken) & global_mask
        data.events += 1
    for index, site in enumerate(trace.sites):
        if totals[index][0] or totals[index][1]:
            data.local[site] = PatternTable(local_bits, local_counts[index])
            data.global_tables[site] = PatternTable(global_bits, global_counts[index])
            data.totals[site] = (totals[index][0], totals[index][1])
    return data


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
