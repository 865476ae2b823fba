"""Property-based tests (hypothesis) on the core invariants.

The heavyweight invariant is the last one: *code replication never
changes program behaviour* — checked on randomly generated structured
programs with randomly chosen branches and machines.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cfg import CFG, DominatorTree, LoopForest, classify_branches
from repro.interp import FuelExhausted, Machine, run_program
from repro.ir import BranchSite, format_program, parse_program, validate_program
from repro.profiling import (
    PatternTable,
    ProfileData,
    Trace,
    trace_from_bytes,
    trace_to_bytes,
    trace_program,
)
from repro.replication import ReplicationPlanner, apply_replication
from repro.replication import apply as apply_module
from repro.statemachines import (
    best_intra_machine,
    greedy_intra_machine,
    node_counts,
    partition_score,
    shape_leaves,
    shapes_with_leaves,
)
from repro.workloads import random_program

events_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.booleans()), max_size=300
)


@given(events_strategy)
def test_trace_file_roundtrip(events):
    trace = Trace()
    for site_index, taken in events:
        trace.record(BranchSite("f", f"b{site_index}"), taken)
    loaded = trace_from_bytes(trace_to_bytes(trace))
    assert list(loaded.events()) == list(trace.events())
    assert loaded.sites == trace.sites


@given(events_strategy, st.integers(1, 8))
def test_marginalization_preserves_totals(events, bits):
    table = PatternTable(9)
    history = 0
    for _, taken in events:
        table.add(history, 1 if taken else 0)
        history = ((history << 1) | (1 if taken else 0)) & 0x1FF
    short = table.marginalize(bits)
    assert short.total() == table.total()
    # Per-pattern majority at full depth is at least as accurate.
    assert table.correct_if_per_pattern() >= short.correct_if_per_pattern()


@given(st.lists(st.booleans(), min_size=1, max_size=400), st.integers(2, 6))
def test_machine_search_bounds(outcomes, max_states):
    table = PatternTable(9)
    history = 0
    for taken in outcomes:
        table.add(history, 1 if taken else 0)
        history = ((history << 1) | (1 if taken else 0)) & 0x1FF
    scored = best_intra_machine(table, max_states)
    # Never worse than profile, never better than the full table.
    assert scored.correct >= max(table.total())
    assert scored.correct <= table.correct_if_per_pattern()
    greedy = greedy_intra_machine(table, max_states)
    assert greedy.correct <= scored.correct


@given(st.integers(1, 7))
def test_trie_shapes_partition(n_leaves):
    for shape in shapes_with_leaves(n_leaves):
        leaves = shape_leaves(shape)
        max_depth = max(length for _, length in leaves)
        for history in range(1 << max_depth):
            matches = [
                (value, length)
                for value, length in leaves
                if (history & ((1 << length) - 1)) == value
            ]
            assert len(matches) == 1


@given(st.lists(st.booleans(), min_size=10, max_size=300))
def test_partition_score_conserves_counts(outcomes):
    table = PatternTable(9)
    history = 0
    for taken in outcomes:
        table.add(history, 1 if taken else 0)
        history = ((history << 1) | (1 if taken else 0)) & 0x1FF
    nodes = node_counts(table)
    for shape in shapes_with_leaves(3):
        leaves = shape_leaves(shape)
        charged = sum(
            sum(nodes.get(leaf, (0, 0))) for leaf in leaves
        )
        assert charged == len(outcomes)
        assert partition_score(nodes, leaves) <= len(outcomes)


def recount(events, local_bits=9, global_bits=8):
    """Naive per-event reference for ``ProfileData.from_trace``: each
    (site, taken) event is charged to its site's local and global
    history pattern, then shifted into both histories."""
    local, global_, totals, histories = {}, {}, {}, {}
    ghist = 0
    for site, taken in events:
        bit = int(taken)
        lhist = histories.get(site, 0)
        local.setdefault(site, {}).setdefault(lhist, [0, 0])[bit] += 1
        global_.setdefault(site, {}).setdefault(ghist, [0, 0])[bit] += 1
        totals.setdefault(site, [0, 0])[bit] += 1
        histories[site] = ((lhist << 1) | bit) % (1 << local_bits)
        ghist = ((ghist << 1) | bit) % (1 << global_bits)
    return local, global_, {site: tuple(c) for site, c in totals.items()}


@given(events_strategy)
def test_online_profiler_matches_batch(events):
    trace = Trace()
    for site_index, taken in events:
        trace.record(BranchSite("f", f"b{site_index}"), taken)
    batch = ProfileData.from_trace(trace)
    local, global_, totals = recount(trace)
    assert batch.totals == totals
    assert batch.events == len(events)
    assert {site: table.counts for site, table in batch.local.items()} == local
    assert {
        site: table.counts for site, table in batch.global_tables.items()
    } == global_


@given(events_strategy)
def test_profile_serialisation_roundtrip(events):
    from repro.profiling import profile_from_bytes, profile_to_bytes

    trace = Trace()
    for site_index, taken in events:
        trace.record(BranchSite("f", f"b{site_index}"), taken)
    profile = ProfileData.from_trace(trace)
    loaded = profile_from_bytes(profile_to_bytes(profile))
    assert loaded.totals == profile.totals
    for site in profile.totals:
        assert loaded.local[site].counts == profile.local[site].counts


@given(st.integers(0, 200))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_analyse_cleanly(seed):
    program = random_program(seed)
    validate_program(program)
    function = program.main_function()
    cfg = CFG.from_function(function)
    tree = DominatorTree(cfg)
    forest = LoopForest(cfg, tree)
    # Every loop header dominates its whole body.
    for loop in forest:
        for label in loop.body:
            assert tree.dominates(loop.header, label)
    classify_branches(program)


@given(st.integers(0, 200))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_roundtrip(seed):
    program = random_program(seed)
    text = format_program(program)
    assert format_program(parse_program(text)) == text


@given(st.integers(0, 200), st.integers(0, 20))
@settings(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fuel_boundary_is_exact(seed, arg):
    """A budget of exactly the steps a run takes succeeds identically;
    one step less raises FuelExhausted having run everything but the
    final ``ret``, so with the whole output written."""
    program = random_program(seed, helpers=seed % 3)
    full = run_program(program, [arg], max_steps=2_000_000)
    exact = run_program(program, [arg], max_steps=full.steps)
    assert (exact.value, exact.output, exact.steps, exact.branches) == (
        full.value, full.output, full.steps, full.branches
    )
    short = Machine(program, max_steps=full.steps - 1)
    with pytest.raises(FuelExhausted):
        short.run(arg)
    assert short.output == full.output


@given(st.integers(0, 150), st.integers(0, 20))
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_rotation_and_layout_preserve_semantics(seed, arg):
    """Loop rotation + alignment + chain layout never change behaviour."""
    from repro.layout import layout_program, profile_edges, rotate_program
    from repro.replication import annotate_profile_predictions

    program = random_program(seed)
    reference = run_program(program.copy(), [arg], max_steps=2_000_000)
    trace, _ = trace_program(program.copy(), [arg], max_steps=2_000_000)
    profile = ProfileData.from_trace(trace)
    annotate_profile_predictions(program, profile)
    rotate_program(program)
    layout_program(program, profile_edges(program, [arg]))
    validate_program(program)
    transformed = run_program(program, [arg], max_steps=2_000_000)
    assert transformed.value == reference.value
    assert transformed.output == reference.output


@given(st.integers(0, 150))
@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_scheduling_estimates_well_formed(seed):
    """Superblock estimates exist for any annotated program and never
    exceed the per-block baseline."""
    from repro.interp import Machine
    from repro.replication import annotate_profile_predictions
    from repro.scheduling import estimate_program_cycles

    program = random_program(seed)
    trace, _ = trace_program(program.copy(), [seed % 7], max_steps=2_000_000)
    profile = ProfileData.from_trace(trace)
    annotate_profile_predictions(program, profile)
    machine = Machine(program, max_steps=2_000_000, count_edges=True)
    machine.run(seed % 7)
    counts = {}
    for (fn, _src, dst), count in machine.edge_counts.items():
        counts[(fn, dst)] = counts.get((fn, dst), 0) + count
    for function in program:
        counts.setdefault((function.name, function.entry), 1)
    baseline, region = estimate_program_cycles(program, counts)
    assert 0 <= region <= baseline


def _planned_random_program(seed, arg):
    """A random program, its profile on input *arg* and the planner's
    best machine per improvable branch; the profile is None when the
    run takes no branch."""
    program = random_program(seed, helpers=seed % 3)
    trace, _ = trace_program(program.copy(), [arg], max_steps=2_000_000)
    if len(trace) == 0:
        return program, None, []
    profile = ProfileData.from_trace(trace)
    planner = ReplicationPlanner(program, profile, max_states=4)
    selections = []
    for plan in planner.improvable_plans():
        option = plan.best_option(4)
        if option is not None:
            selections.append((plan.site, option.scored.machine))
    return program, profile, selections


@given(st.integers(0, 80), st.integers(0, 30))
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replication_preserves_semantics(seed, arg):
    """The headline property: replicated programs behave identically."""
    program, profile, selections = _planned_random_program(seed, arg)
    if profile is None:
        return
    reference = run_program(program.copy(), [arg], max_steps=2_000_000)
    report = apply_replication(program, selections, profile)
    validate_program(report.program)
    transformed = run_program(report.program, [arg], max_steps=8_000_000)
    assert transformed.value == reference.value
    assert transformed.output == reference.output


@given(st.integers(0, 80), st.integers(0, 30))
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_live_cfg_matches_a_fresh_rebuild(seed, arg):
    """After every transform, the CFG ``apply_replication`` keeps current
    equals one rebuilt from the edited function, its tracked size is the
    function's size, and the blocks it dropped are exactly those a fresh
    reachability walk drops, in layout order."""
    program, profile, selections = _planned_random_program(seed, arg)
    if profile is None:
        return
    checked = []

    def check_current(function, cfg):
        fresh = CFG.from_function(function)
        assert list(cfg.succs.items()) == list(fresh.succs.items())
        assert list(cfg.preds.items()) == list(fresh.preds.items())
        assert cfg.entry == fresh.entry
        assert cfg.size == function.size()
        checked.append(function.name)

    def checking(transform):
        def run(function, *args, cfg, **kwargs):
            result = transform(function, *args, cfg=cfg, **kwargs)
            check_current(function, cfg)
            return result

        return run

    remove_unreachable = CFG.remove_unreachable

    def checked_remove(cfg):
        live = CFG.from_function(cfg.function).reachable()
        expected = [label for label in cfg.function.blocks if label not in live]
        assert remove_unreachable(cfg) == expected
        return expected

    with pytest.MonkeyPatch.context() as patch:
        for name in ("replicate_loop_branch", "duplicate_correlated_branch"):
            patch.setattr(apply_module, name, checking(getattr(apply_module, name)))
        patch.setattr(CFG, "remove_unreachable", checked_remove)
        # Realising the plan twice cascades every transform onto the
        # copies the first pass made.
        report = apply_replication(program, selections * 2, profile)
    assert len(checked) == len(report.loop_results) + len(report.tail_results)
