"""The interpreter's branch log against a per-event reference recorder.

Both interpreter tiers append every branch event to a flat log
(:class:`~repro.interp.machine.BranchLog`), which ``instrumented_run``
and ``measure_annotated`` fold in bulk after the run.  The oracle here
is the per-event recorder they replaced, walking the decoded log one
event at a time and recording each into a ``Trace`` and a
``PatternTable``.  The folds must equal it exactly, dict order included.
"""

import dataclasses
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import branch_events, numpy_mode
from repro.interp import FuelExhausted, Machine, TrapError
from repro.ir import BranchSite, parse_program
from repro.profiling import PatternTable, ProfileData, Trace, instrumented_run
from repro.replication import measure_annotated
from repro.workloads import get_program, get_trace, get_workload, random_program

TIERS = ["cold", "hot"]
MAX_STEPS = 2_000_000


def logged_run(program, args, history_bits=0):
    """A run with its branches logged, and its result."""
    machine = Machine(
        program, (), MAX_STEPS, track_history_bits=history_bits, log_branches=True
    )
    return machine, machine.run(*args)


def reference_run(program, args, history_bits=0):
    """``instrumented_run`` as a per-event recorder."""
    trace = Trace()
    tables = {}
    machine, result = logged_run(program, args, history_bits)
    for site, taken, history in branch_events(machine):
        trace.record(site, taken)
        if history_bits > 0:
            table = tables.get(site)
            if table is None:
                table = tables[site] = PatternTable(history_bits)
            table.add(history, 1 if taken else 0)
    return trace, tables, result


def reference_measure(program, args, default):
    """``measure_annotated`` as a per-event recorder:
    ``(events, mispredictions, per_site items, per_origin items)``."""
    predictions, origins = {}, {}
    for function in program:
        for block in function:
            if block.branch is not None:
                site = BranchSite(function.name, block.label)
                predict = block.branch.predict
                predictions[site] = default if predict is None else predict
                origins[site] = BranchSite(function.name, block.origin)
    per_site, per_origin = {}, {}
    for site, taken, _ in branch_events(logged_run(program, args)[0]):
        wrong = predictions[site] is not taken
        for key, counts in ((site, per_site), (origins[site], per_origin)):
            cell = counts.setdefault(key, [0, 0])
            cell[0] += 1
            cell[1] += wrong
    return (
        sum(cell[0] for cell in per_site.values()),
        sum(cell[1] for cell in per_site.values()),
        [(site, tuple(cell)) for site, cell in per_site.items()],
        sorted((site, tuple(cell)) for site, cell in per_origin.items()),
    )


def summary(trace, tables, result):
    """Everything the two recorders must agree on, in order."""
    return (
        trace.sites,
        trace.site_ids.tolist(),
        trace.directions.packed(),
        len(trace.directions),
        [(site, table.bits, list(table.counts.items())) for site, table in tables.items()],
        (result.value, result.output, result.steps, result.branches),
    )


def measured(program, args, default):
    measurement = measure_annotated(program, args, default=default)
    return (
        measurement.events,
        measurement.mispredictions,
        list(measurement.per_site.items()),
        sorted(measurement.per_origin.items()),
    )


def planted(program, seed):
    """*program* with a random ``predict`` bit on about half its branches."""
    rng = random.Random(seed)
    for function in program:
        for block in function:
            if block.branch is not None and rng.random() < 0.5:
                block.terminator = dataclasses.replace(block.branch, predict=rng.random() < 0.5)
    return program


def ladder(rungs: int) -> str:
    """A loop over *rungs* branches, three blocks each: more than 128
    blocks logs two-byte event codes."""
    lines = ["func main(n) {", "entry:", "  i = const 0", "  acc = const 0", "  jump head"]
    lines += ["head:", "  br lt i, n ? r0 : done"]
    for rung in range(rungs):
        following = f"r{rung + 1}" if rung + 1 < rungs else "next"
        lines += [
            f"r{rung}:", f"  x = mod i, {rung % 5 + 2}", f"  br eq x, 0 ? t{rung} : f{rung}",
            f"t{rung}:", f"  acc = add acc, {rung}", f"  jump {following}",
            f"f{rung}:", f"  jump {following}",
        ]
    lines += ["next:", "  i = add i, 1", "  jump head", "done:", "  ret acc", "}"]
    return "\n".join(lines)


def pair_counted(program, args, history_bits):
    """``instrumented_run``'s path tables as ``Counter(zip(codes,
    history))`` folds them: each ``(code, history)`` pair once, in
    first-event order."""
    log = logged_run(program, args, history_bits)[0].branch_log
    sites = log.sites(set(log.codes))
    tables = {}
    for (code, pattern), count in Counter(zip(log.codes, log.history)).items():
        table = tables.get(sites[code])
        if table is None:
            table = tables[sites[code]] = PatternTable(history_bits)
        table.counts.setdefault(pattern, [0, 0])[code & 1] += count
    return [(site, table.bits, list(table.counts.items())) for site, table in tables.items()]


@given(
    seed=st.integers(0, 500),
    arg=st.integers(0, 8),
    history_bits=st.sampled_from([0, 1, 4, 8, 9, 16]),
    tier=st.sampled_from(TIERS),
    wide=st.booleans(),
)
@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_folds_equal_the_reference_recorder(force_tier, seed, arg, history_bits, tier, wide):
    """A random program, or a *wide* one of more than 128 blocks (two-byte
    event codes); 9 and 16 history bits log two-byte history."""
    source = parse_program(ladder(45)) if wide else random_program(seed, helpers=seed % 3)
    program = planted(source, seed)
    force_tier(tier)
    expected = summary(*reference_run(program, [arg], history_bits))
    for _ in range(2):  # the second hot run starts hot at activation entry
        got = instrumented_run(program, [arg], (), history_bits)
        assert summary(*got) == expected
    if history_bits:
        assert summary(*got)[4] == pair_counted(program, [arg], history_bits)
    for default in (False, True):
        assert measured(program, [arg], default) == reference_measure(program, [arg], default)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("history_bits", [0, 9, 70])
def test_wide_codes_and_history_fold_like_the_reference(force_tier, tier, history_bits):
    """Two-byte event codes, two-byte history and history past 64 bits
    (a list) take the general paths of the folds."""
    program = parse_program(ladder(60))
    force_tier(tier)
    expected = summary(*reference_run(program, [12], history_bits))
    got = instrumented_run(program, [12], (), history_bits)
    assert summary(*got) == expected
    assert measured(program, [12], True) == reference_measure(program, [12], True)


def test_replicated_copies_fold_onto_their_origins():
    from repro import replication, workloads

    name = "compress"
    args, inputs = get_workload(name).default_args(1)
    profile = workloads.get_profile(name, 1, 0)
    planner = replication.ReplicationPlanner(get_program(name), profile, max_states=6)
    chosen = {}
    for point in replication.tradeoff_curve(planner, max_size_factor=2.0):
        if point.step is not None:
            site, n_states = point.step
            option = next(o for o in planner.plans[site].options if o.n_states == n_states)
            chosen[site] = option.scored.machine
    program = replication.apply_replication(get_program(name), list(chosen.items()), profile).program
    measurement = measure_annotated(program, args, inputs)
    assert len(measurement.per_origin) < len(measurement.per_site)
    folded = {}
    for site, (executions, wrong) in measurement.per_site.items():
        origin = BranchSite(site.function, program.function(site.function).blocks[site[1]].origin)
        cell = folded.setdefault(origin, [0, 0])
        cell[0] += executions
        cell[1] += wrong
    assert {site: tuple(cell) for site, cell in folded.items()} == measurement.per_origin


TRAPPING = """
func main(n) {
entry:
  i = const 0
  jump loop
loop:
  br lt i, n ? body : done
body:
  i = add i, 1
  jump loop
done:
  z = const 0
  q = div n, z
  ret q
}
"""


@pytest.mark.parametrize("tier", TIERS)
def test_a_trap_is_raised_after_every_callback(force_tier, tier):
    program = parse_program(TRAPPING)
    force_tier(tier)
    for _ in range(2):
        machine = Machine(program, track_history_bits=3, log_branches=True)
        with pytest.raises(TrapError, match="division by zero"):
            machine.run(5)
        site = BranchSite("main", "loop")
        assert branch_events(machine) == [
            (site, True, 0), (site, True, 1), (site, True, 3),
            (site, True, 7), (site, True, 7), (site, False, 7),
        ]


def events_until_fuel_runs_out(program, max_steps):
    machine = Machine(program, (), max_steps, log_branches=True)
    with pytest.raises(FuelExhausted):
        machine.run(10**6)
    return branch_events(machine)


@pytest.mark.parametrize("tier", TIERS)
def test_fuel_exhaustion_replays_the_events_before_it(force_tier, tier):
    program = parse_program(TRAPPING)
    force_tier("cold")
    reference = events_until_fuel_runs_out(program, max_steps=40)
    assert 0 < len(reference) < 20
    force_tier(tier)
    for _ in range(2):
        assert events_until_fuel_runs_out(program, max_steps=40) == reference


#: tracemalloc peak of one ``instrumented_run`` (8 history bits) per
#: recorded event, the interpreter's compiled code already cached:
#: the log takes 2 B/event and the trace's site-id column 4.  Abalone
#: at scale 1 read 8.8, against 5.2 for a per-event recorder.
BYTES_PER_EVENT = 12.0


def test_recording_bytes_per_event():
    name = "abalone"
    args, inputs = get_workload(name).seeded_args(1, 0)
    program = get_program(name)
    instrumented_run(program, args, inputs, history_bits=8)
    tracemalloc.start()
    try:
        trace, _, _ = instrumented_run(program, args, inputs, history_bits=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) > 10_000
    assert peak / len(trace) <= BYTES_PER_EVENT


#: tracemalloc peaks of the numpy-free profile build per event of
#: abalone at scale 20 (430,900 events): ``ProfileData.from_trace``
#: (totals and 9-bit local tables) read 4.2, its event codes plus one
#: site's directions and keys in 16-bit lanes; the first read of its
#: 8-bit global tables read 10.5, all events' keys in 16-bit lanes and
#: the big ints that build them.  Each gate is its reading plus 30%.
PROFILE_BYTES_PER_EVENT = 5.5
GLOBAL_TABLE_BYTES_PER_EVENT = 13.7


def traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_profile_bytes_per_event():
    trace = get_trace("abalone", 20)
    with numpy_mode(True):
        ProfileData.from_trace(trace).global_tables
        profiles = []
        peak = traced_peak(lambda: profiles.append(ProfileData.from_trace(trace)))
        global_peak = traced_peak(lambda: profiles[0].global_tables)
    assert len(trace) > 400_000
    assert peak / len(trace) <= PROFILE_BYTES_PER_EVENT
    assert global_peak / len(trace) <= GLOBAL_TABLE_BYTES_PER_EVENT
