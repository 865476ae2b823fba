"""Property-based tests (hypothesis) on the core invariants.

The heavyweight invariant is the last one: *code replication never
changes program behaviour* — checked on randomly generated structured
programs with randomly chosen branches and machines.
"""

import itertools
import math

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.cfg import CFG, DominatorTree, LoopForest, classify_branches
from repro.interp import FuelExhausted, Machine
from repro.ir import BranchSite, format_program, parse_program, validate_program
from repro.learn import (
    LearnedConfig,
    LearnedModel,
    ModelWeights,
    fit,
    model_to_json,
    training_cut,
)
from repro.learn.models import margin
from repro.profiling import (
    PatternTable,
    ProfileData,
    Trace,
    profile_program,
    trace_from_bytes,
    trace_to_bytes,
    trace_program,
)
from repro.profiling.columns import TraceColumns, get_numpy
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

from conftest import NUMPY_MODES, numpy_mode, recorded_trace, reference_profile, run_folding_copies

events_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.booleans()), max_size=300
)


@given(events_strategy)
def test_trace_file_roundtrip(events):
    trace = Trace.from_events(
        (BranchSite("f", f"b{site_index}"), taken) for site_index, taken in events
    )
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
    trace = Trace.from_events(
        (BranchSite("f", f"b{site_index}"), taken) for site_index, taken in events
    )
    batch = ProfileData.from_trace(trace)
    local, global_, totals = recount(trace)
    assert batch.totals == totals
    assert batch.events == len(events)
    assert {site: table.counts for site, table in batch.local.items()} == local
    assert {
        site: table.counts for site, table in batch.global_tables.items()
    } == global_


@pytest.mark.skipif(get_numpy() is None, reason="history columns are numpy-only")
@given(events_strategy, st.integers(1, 12))
@example([], 1)
@example([(0, True), (0, False), (0, True)], 12)
def test_history_columns_match_shift_registers(events, bits):
    """Every register column of the view equals per-event Python shift
    registers: the global one in event order and in grouped order, the
    per-site one (reset per site) in grouped order."""
    trace = Trace.from_events(
        (BranchSite("f", f"b{site_index}"), taken) for site_index, taken in events
    )
    mask = (1 << bits) - 1
    ghist, lhists = 0, {}
    global_, per_site_global, per_site_local = [], {}, {}
    for sid, direction in trace.events():
        lhist = lhists.get(sid, 0)
        global_.append(ghist)
        per_site_global.setdefault(sid, []).append(ghist)
        per_site_local.setdefault(sid, []).append(lhist)
        ghist = ((ghist << 1) | direction) & mask
        lhists[sid] = ((lhist << 1) | direction) & mask

    def grouped(per_site):
        return [history for sid in sorted(per_site) for history in per_site[sid]]

    columns = trace.columns()
    assert columns.history("global", bits).tolist() == global_
    assert columns.history("global-grouped", bits).tolist() == grouped(per_site_global)
    assert columns.history("local", bits).tolist() == grouped(per_site_local)


def profile_dump(profile):
    """Everything a profile's consumers can observe, in dict order."""

    def tables(by_site):
        return [
            (site, table.bits, list(table.counts.items()))
            for site, table in by_site.items()
        ]

    return (
        profile.events,
        list(profile.totals.items()),
        tables(profile.local),
        tables(profile.global_tables),
    )


@pytest.mark.skipif(get_numpy() is None, reason="the columnar routes are numpy-only")
@given(
    events_strategy,
    st.lists(st.integers(0, 5), unique=True, max_size=6),
    st.integers(1, 12),
    st.integers(1, 12),
)
@example([], [], 12, 9)
@example([], [2, 0], 3, 5)
@example([(3, True), (3, False), (3, True), (3, True)], [], 12, 1)
@example([(3, True), (3, False), (3, True), (3, True)], [5, 3], 1, 12)
def test_columnar_profile_matches_event_loop(events, interned, local_bits, global_bits):
    """The profile built from the columnar view equals the per-event
    loop's (events, site order, totals, every table in dict order and
    the KBP1 bytes), and the numpy ``site_executions`` and
    ``site_taken`` equal the pure pass's, order included.  Sites interned up front in a drawn order,
    some never executed, make site-id order differ from first-seen
    order."""
    from repro.profiling import profile_to_bytes

    trace = recorded_trace(
        [(BranchSite("f", f"b{site_index}"), taken) for site_index, taken in events],
        [BranchSite("f", f"b{site_index}") for site_index in interned],
    )
    reference = reference_profile(trace, local_bits, global_bits)
    with numpy_mode(False):
        columns = trace.columns()
        columnar = ProfileData.from_trace(trace, local_bits, global_bits)
        assert profile_dump(columnar) == profile_dump(reference)
    assert profile_to_bytes(columnar) == profile_to_bytes(reference)
    with numpy_mode(True):
        pure = TraceColumns(trace.sites, trace.site_ids, trace.directions)
    assert pure.np is None
    assert list(columns.site_executions().items()) == list(
        pure.site_executions().items()
    )
    assert columns.site_taken() == pure.site_taken()


#: History depths where the bulk route's lanes change width (1, 2 and 4
#: bytes) or its registers fill one: 1, 8/9, 15/16 and 24 bits.
BULK_BITS = st.sampled_from([1, 8, 9, 15, 16, 24])


@given(
    st.sampled_from([1, 127, 128, 300]),
    st.lists(st.tuples(st.integers(0, 299), st.booleans()), max_size=400),
    st.randoms(use_true_random=False),
    BULK_BITS,
    BULK_BITS,
)
@example(1, [], None, 1, 24)
@example(300, [], None, 24, 1)
@example(128, [(127, True), (0, False), (127, True)], None, 9, 16)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bulk_profile_matches_event_loop(
    site_count, events, rng, local_bits, global_bits
):
    """Without numpy the profile's bulk passes equal the per-event loop:
    0 events; 1, 127, 128 and 300 sites (300 takes three chunks of
    one-byte codes); every table in dict order and the KBP1 bytes, with
    the global tables built on their first read.  All sites are
    interned up front in a drawn order, so site-id order is not
    first-seen order."""
    from repro.profiling import profile_to_bytes

    order = list(range(site_count))
    if rng is not None:
        rng.shuffle(order)
    trace = recorded_trace(
        [(BranchSite("f", f"b{site_index % site_count}"), taken) for site_index, taken in events],
        [BranchSite("f", f"b{site_index}") for site_index in order],
    )
    reference = reference_profile(trace, local_bits, global_bits)
    with numpy_mode(True):
        bulk = ProfileData.from_trace(trace, local_bits, global_bits)
        assert bulk._global_trace is trace
        assert profile_dump(bulk) == profile_dump(reference)
        assert profile_to_bytes(bulk) == profile_to_bytes(reference)


@given(events_strategy)
def test_profile_serialisation_roundtrip(events):
    from repro.profiling import profile_from_bytes, profile_to_bytes

    trace = Trace.from_events(
        (BranchSite("f", f"b{site_index}"), taken) for site_index, taken in events
    )
    profile = ProfileData.from_trace(trace)
    loaded = profile_from_bytes(profile_to_bytes(profile))
    assert loaded.totals == profile.totals
    for site in profile.totals:
        assert loaded.local[site].counts == profile.local[site].counts


def reference_fit(trace, config, split):
    """Naive reference for ``learn.fit``: one interleaved pass per epoch
    over the prefix, every event updating the shared model and then its
    site's model through ``margin``."""
    perceptron = config.kind == "perceptron"
    zero = 0 if perceptron else 0.0
    bits = config.history_bits
    mask = (1 << bits) - 1
    limit = config.weight_limit

    def update(model, pattern, direction, theta):
        total = margin(model, pattern)
        if perceptron:
            y = 1 if direction else -1
            if (total >= 0) == (y > 0) and abs(total) > theta:
                return
            model.bias = max(-limit, min(limit, model.bias + y))
            model.weights = [
                max(-limit, min(limit, weight + (y if (pattern >> j) & 1 else -y)))
                for j, weight in enumerate(model.weights)
            ]
        else:
            clamped = max(-60.0, min(60.0, total))
            gradient = config.learning_rate * (
                float(direction) - 1.0 / (1.0 + math.exp(-clamped))
            )
            model.bias += gradient
            model.weights = [
                weight + gradient if (pattern >> j) & 1 else weight - gradient
                for j, weight in enumerate(model.weights)
            ]

    shared = ModelWeights(bias=zero, weights=[zero] * bits)
    sites = {}
    cut = training_cut(len(trace), split)
    for _ in range(config.epochs):
        ghist, lhists = 0, {}
        for sid, direction in itertools.islice(trace.events(), cut):
            site = trace.sites[sid]
            entry = sites.setdefault(
                site, ModelWeights(bias=zero, weights=[zero] * config.feature_bits)
            )
            lhist = lhists.get(site, 0)
            pattern = {
                "global": ghist,
                "peraddr": lhist,
                "hybrid": (lhist << bits) | ghist,
            }[config.scope]
            update(shared, ghist, direction, config.resolved_theta(bits))
            update(entry, pattern, direction, config.resolved_theta(config.feature_bits))
            ghist = ((ghist << 1) | direction) & mask
            lhists[site] = ((lhist << 1) | direction) & mask
    return LearnedModel(config=config, shared=shared, sites=sites)


@st.composite
def learned_configs(draw):
    scope = draw(st.sampled_from(["global", "peraddr", "hybrid"]))
    return LearnedConfig(
        kind=draw(st.sampled_from(["perceptron", "logistic"])),
        scope=scope,
        history_bits=draw(st.integers(1, 4 if scope == "hybrid" else 8)),
        epochs=draw(st.integers(1, 3)),
        weight_limit=draw(st.integers(1, 127)),
        theta=draw(st.none() | st.integers(0, 60)),
    )


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4), st.booleans()), max_size=400
    ),
    learned_configs(),
    st.floats(0.0, 1.0, exclude_min=True),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fit_matches_interleaved_reference(events, config, split):
    """Training each model alone over its pattern column gives exactly
    the weights, and the site order, of the interleaved pass, on both
    column representations."""
    trace = Trace.from_events(
        (BranchSite(f"f{function}", f"b{block}"), taken) for function, block, taken in events
    )
    expected = reference_fit(trace, config, split)
    packed = trace.directions
    for disabled in NUMPY_MODES:
        with numpy_mode(disabled):
            columns = TraceColumns(trace.sites, trace.site_ids, packed)
            model = fit(columns, config, split)
        assert model_to_json(model) == model_to_json(expected)
        assert list(model.sites) == list(expected.sites)


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
    full = Machine(program, max_steps=2_000_000).run(arg)
    exact = Machine(program, max_steps=full.steps).run(arg)
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
    from repro.layout import edge_profiles, layout_program, rotate_program, run_edges
    from repro.replication import annotate_profile_predictions

    program = random_program(seed)
    reference = Machine(program.copy(), max_steps=2_000_000).run(arg)
    trace, _ = trace_program(program.copy(), [arg])
    profile = ProfileData.from_trace(trace)
    annotate_profile_predictions(program, profile)
    rotate_program(program)
    layout_program(program, edge_profiles(program, run_edges(program, [arg])[0]))
    validate_program(program)
    transformed = Machine(program, max_steps=2_000_000).run(arg)
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
    from repro.replication import annotate_profile_predictions
    from repro.scheduling import block_and_edge_counts, estimate_program_cycles

    program = random_program(seed)
    Machine(program.copy(), max_steps=2_000_000).run(seed % 7)  # a runaway fails fast
    trace, _ = trace_program(program.copy(), [seed % 7])
    profile = ProfileData.from_trace(trace)
    annotate_profile_predictions(program, profile)
    counts, _ = block_and_edge_counts(program, [seed % 7])
    baseline, region = estimate_program_cycles(program, counts)
    assert 0 <= region <= baseline


def _planned_random_program(seed, arg):
    """A random program, its profile on input *arg* and the planner's
    best machine per improvable branch; the profile is None when the
    run takes no branch."""
    program = random_program(seed, helpers=seed % 3)
    Machine(program.copy(), max_steps=2_000_000).run(arg)  # a runaway fails fast
    profile, _ = profile_program(program.copy(), [arg])
    if profile.events == 0:
        return program, None, []
    planner = ReplicationPlanner(program, profile, max_states=4)
    selections = [(plan.site, option.scored.machine) for plan, option in planner.picks()]
    return program, profile, selections


@given(st.integers(0, 80), st.integers(0, 30))
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replication_preserves_semantics(seed, arg):
    """The headline property: replicated programs behave identically.

    Every block of the result names a block of the same input function
    as its origin, and folding each copy onto its origin gives every
    original branch exactly its original executions and taken count.
    """
    program, profile, selections = _planned_random_program(seed, arg)
    if profile is None:
        return
    reference, reference_counts = run_folding_copies(
        program.copy(), [arg], max_steps=2_000_000
    )
    report = apply_replication(program, selections, profile)
    validate_program(report.program)
    for function in report.program:
        original = program.function(function.name)
        assert all(block.origin in original.blocks for block in function)
    transformed, counts = run_folding_copies(report.program, [arg], max_steps=8_000_000)
    assert transformed.value == reference.value
    assert transformed.output == reference.output
    assert counts == reference_counts


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
