"""Instruction-cache simulator and cost-function tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entered_blocks
from repro.icache import (
    CacheConfig,
    CostModel,
    assign_addresses,
    evaluate_cost,
    simulate_icache,
)
from repro.interp import Machine
from repro.profiling import ProfileData, trace_program
from repro.replication import (
    ReplicationPlanner,
    annotate_profile_predictions,
    apply_replication,
    measure_annotated,
)
from repro.workloads import (
    BENCHMARK_NAMES,
    get_profile,
    get_program,
    get_workload,
    random_program,
)


class InstructionCache:
    """Direct-mapped cache fed with word-address ranges: the reference
    that :func:`simulate_icache` must agree with."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._tags = [-1] * config.lines
        self.accesses = 0
        self.misses = 0

    def touch_range(self, start: int, end: int) -> None:
        """Fetch every line overlapping [start, end)."""
        line_words = self.config.line_words
        lines = self.config.lines
        first = start // line_words
        last = (end - 1) // line_words if end > start else first - 1
        for line_address in range(first, last + 1):
            index = line_address % lines
            self.accesses += 1
            if self._tags[index] != line_address:
                self._tags[index] = line_address
                self.misses += 1

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self._tags = [-1] * self.config.lines
        self.accesses = 0
        self.misses = 0


class TestCacheConfig:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            CacheConfig(lines=3)
        with pytest.raises(ValueError):
            CacheConfig(line_words=5)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            CacheConfig(lines=0)


class TestAddressAssignment:
    def test_contiguous_disjoint(self, alternating_loop):
        addresses = assign_addresses(alternating_loop)
        ranges = sorted(addresses.values())
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 == s2  # contiguous, no overlap
        assert ranges[0][0] == 0
        assert ranges[-1][1] == alternating_loop.size()

    def test_block_size_matches(self, alternating_loop):
        addresses = assign_addresses(alternating_loop)
        function = alternating_loop.main_function()
        for block in function:
            start, end = addresses[("main", block.label)]
            assert end - start == block.size()


class TestInstructionCache:
    def test_cold_misses(self):
        cache = InstructionCache(CacheConfig(4, 4))
        cache.touch_range(0, 8)  # lines 0 and 1
        assert cache.misses == 2
        assert cache.accesses == 2

    def test_hits_on_repeat(self):
        cache = InstructionCache(CacheConfig(4, 4))
        cache.touch_range(0, 8)
        cache.touch_range(0, 8)
        assert cache.misses == 2
        assert cache.accesses == 4
        assert cache.miss_rate == 0.5

    def test_conflict_eviction(self):
        cache = InstructionCache(CacheConfig(2, 4))
        cache.touch_range(0, 4)   # line 0 -> index 0
        cache.touch_range(8, 12)  # line 2 -> index 0, evicts
        cache.touch_range(0, 4)   # miss again
        assert cache.misses == 3

    def test_reset(self):
        cache = InstructionCache(CacheConfig(2, 4))
        cache.touch_range(0, 4)
        cache.reset()
        assert cache.misses == 0 and cache.accesses == 0

    def test_empty_range(self):
        cache = InstructionCache(CacheConfig(2, 4))
        cache.touch_range(5, 5)
        assert cache.accesses == 0


class TestSimulation:
    def test_small_program_fits(self, alternating_loop):
        result = simulate_icache(
            alternating_loop, CacheConfig(64, 8), [200]
        )
        # The whole program fits: only cold misses.
        assert result.misses <= alternating_loop.size()
        assert result.miss_rate < 0.01

    def test_tiny_cache_thrashes(self, recursive_sum):
        big = simulate_icache(recursive_sum, CacheConfig(64, 8), [50])
        tiny = simulate_icache(recursive_sum, CacheConfig(1, 2), [50])
        assert tiny.miss_rate > big.miss_rate

    def test_result_fields(self, alternating_loop):
        result = simulate_icache(alternating_loop, CacheConfig(8, 4), [20])
        assert result.program_words == alternating_loop.size()
        assert result.accesses > 0


def _reference_fetches(program, config, args):
    """(accesses, misses) of the fetch stream fed range by range through
    :class:`InstructionCache`, the reference the simulator must match."""
    addresses = assign_addresses(program)
    cache = InstructionCache(config)
    machine = Machine(program, log_transfers=True)
    machine.run(*args)
    for block in entered_blocks(machine):
        cache.touch_range(*addresses[block])
    return cache.accesses, cache.misses


@given(
    st.integers(0, 200),
    st.integers(0, 10),
    st.integers(0, 2**32),
    st.sampled_from([1, 2, 4, 16, 64]),
    st.sampled_from([1, 2, 4, 8]),
)
@settings(deadline=None, max_examples=40)
def test_simulation_matches_the_reference_cache(seed, arg, layout, lines, line_words):
    """On random programs laid out in a random block order, the inline
    tag checks count exactly what :class:`InstructionCache` counts."""
    program = random_program(seed, helpers=seed % 3)
    shuffle = random.Random(layout).shuffle
    for function in program:
        order = list(function.blocks.items())
        shuffle(order)
        function.blocks = dict(order)
    config = CacheConfig(lines, line_words)
    result = simulate_icache(program, config, [arg])
    assert (result.accesses, result.misses) == _reference_fetches(program, config, [arg])


class TestCostFunction:
    def test_model_arithmetic(self):
        model = CostModel(misprediction_penalty=4, miss_penalty=20)
        assert model.cycles(1000, 10, 5) == 1000 + 40 + 100

    def test_evaluate_cost(self, alternating_loop):
        trace, _ = trace_program(alternating_loop.copy(), [100])
        profile = ProfileData.from_trace(trace)
        annotate_profile_predictions(alternating_loop, profile)
        report = evaluate_cost(alternating_loop, [100])
        assert report.instructions > 0
        assert report.branch_events == 201
        assert report.cycles > report.instructions
        assert report.cycles_per_instruction > 1.0

    def test_better_prediction_lowers_cycles(self, alternating_loop):
        from repro.ir import BranchSite
        from repro.replication import apply_replication
        from repro.statemachines import best_intra_machine

        trace, _ = trace_program(alternating_loop.copy(), [200])
        profile = ProfileData.from_trace(trace)
        baseline_program = apply_replication(alternating_loop, [], profile).program
        site = BranchSite("main", "body")
        scored = best_intra_machine(profile.local[site], 2)
        improved_program = apply_replication(
            alternating_loop, [(site, scored.machine)], profile
        ).program
        # A generous cache isolates the prediction effect.
        config = CacheConfig(256, 8)
        baseline = evaluate_cost(baseline_program, [200], cache_config=config)
        improved = evaluate_cost(improved_program, [200], cache_config=config)
        assert improved.mispredictions < baseline.mispredictions
        assert improved.cycles < baseline.cycles


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_one_run_cost_equals_the_separate_runs(name, monkeypatch):
    """On each benchmark's replicated program, ``evaluate_cost`` runs the
    interpreter once and folds both logs to exactly what a
    ``measure_annotated`` run and a ``simulate_icache`` run count."""
    program = get_program(name)
    args, inputs = get_workload(name).default_args(1)
    profile = get_profile(name, 1)
    planner = ReplicationPlanner(program, profile, 4)
    selections = [(plan.site, option.scored.machine) for plan, option in planner.picks()]
    replicated = apply_replication(program, selections, profile).program
    config = CacheConfig(16, 4)
    measured = measure_annotated(replicated, args, inputs)
    fetched = simulate_icache(replicated, config, args, inputs)

    runs = []
    run = Machine.run

    def counting_run(machine, *run_args):
        runs.append(machine)
        return run(machine, *run_args)

    monkeypatch.setattr(Machine, "run", counting_run)
    report = evaluate_cost(replicated, args, inputs, cache_config=config)
    assert len(runs) == 1
    assert report.instructions == measured.result.steps
    assert report.branch_events == measured.events
    assert report.mispredictions == measured.mispredictions
    assert (report.cache.accesses, report.cache.misses) == (fetched.accesses, fetched.misses)
