"""Instruction-cache simulator and cost-function tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entered_blocks
from repro.icache import (
    CacheConfig,
    CostModel,
    InstructionCache,
    assign_addresses,
    evaluate_cost,
    simulate_icache,
)
from repro.interp import Machine
from repro.profiling import ProfileData, trace_program
from repro.replication import annotate_profile_predictions
from repro.workloads import random_program


class TestCacheConfig:
    def test_capacity(self):
        assert CacheConfig(64, 8).capacity_words == 512

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
