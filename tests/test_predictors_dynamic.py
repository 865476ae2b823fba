"""Dynamic predictor tests: last-direction, saturating counters, two-level."""

import pytest

from repro.ir import BranchSite
from repro.predictors import (
    LastDirection,
    SaturatingCounter,
    TwoLevelConfig,
    TwoLevelPredictor,
    all_yeh_patt_variants,
    evaluate,
    two_level_4k,
)
from repro.profiling import Trace

SITE = BranchSite("f", "b")


def trace_of(bits) -> Trace:
    return Trace.from_events((SITE, bool(bit)) for bit in bits)


class TestLastDirection:
    def test_tracks_last_outcome(self):
        predictor = LastDirection()
        predictor.update(SITE, False)
        assert predictor.predict(SITE) is False
        predictor.update(SITE, True)
        assert predictor.predict(SITE) is True

    def test_alternating_is_worst_case(self):
        result = evaluate(LastDirection(), trace_of([1, 0] * 50))
        assert result.misprediction_rate > 0.9

    def test_constant_is_best_case(self):
        result = evaluate(LastDirection(initial=True), trace_of([1] * 50))
        assert result.mispredictions == 0

    def test_per_site_state(self):
        predictor = LastDirection()
        other = BranchSite("f", "c")
        predictor.update(SITE, False)
        predictor.update(other, True)
        assert predictor.predict(SITE) is False
        assert predictor.predict(other) is True

    def test_reset(self):
        predictor = LastDirection()
        predictor.update(SITE, False)
        predictor.reset()
        assert predictor.predict(SITE) is True


class TestSaturatingCounter:
    def test_two_bit_hysteresis(self):
        # One odd outcome in a run of takens should not flip a 2-bit
        # counter's prediction.
        predictor = SaturatingCounter(2)
        for _ in range(5):
            predictor.update(SITE, True)
        predictor.update(SITE, False)
        assert predictor.predict(SITE) is True

    def test_one_bit_flips_immediately(self):
        predictor = SaturatingCounter(1)
        predictor.update(SITE, True)
        predictor.update(SITE, False)
        assert predictor.predict(SITE) is False

    def test_saturation_bounds(self):
        predictor = SaturatingCounter(2)
        for _ in range(100):
            predictor.update(SITE, True)
        # Two not-takens from saturation must still predict taken once.
        predictor.update(SITE, False)
        assert predictor.predict(SITE) is True
        predictor.update(SITE, False)
        assert predictor.predict(SITE) is False

    def test_biased_stream_low_misprediction(self):
        bits = ([1] * 9 + [0]) * 20
        result = evaluate(SaturatingCounter(2), trace_of(bits))
        assert result.misprediction_rate <= 0.2

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            SaturatingCounter(0)

    def test_name_reflects_width(self):
        assert SaturatingCounter(3).name == "3-bit-counter"


class TestTwoLevel:
    def test_learns_alternation(self):
        result = evaluate(two_level_4k(), trace_of([1, 0] * 200))
        # After warmup the pattern table learns both histories.
        assert result.misprediction_rate < 0.1

    def test_learns_period_three(self):
        result = evaluate(two_level_4k(), trace_of([1, 1, 0] * 200))
        assert result.misprediction_rate < 0.1

    def test_beats_counter_on_patterned_stream(self):
        bits = [1, 1, 0, 0] * 150
        trace = trace_of(bits)
        two_level = evaluate(two_level_4k(), trace)
        counter = evaluate(SaturatingCounter(2), trace)
        assert two_level.misprediction_rate < counter.misprediction_rate

    def test_all_nine_variants(self):
        variants = all_yeh_patt_variants(4)
        assert set(variants) == {
            "GAg", "GAs", "GAp", "SAg", "SAs", "SAp", "PAg", "PAs", "PAp"
        }
        trace = trace_of([1, 0] * 100)
        for predictor in variants.values():
            result = evaluate(predictor, trace)
            assert result.misprediction_rate < 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TwoLevelConfig(history_scope="cosmic")
        with pytest.raises(ValueError):
            TwoLevelConfig(history_bits=0)

    def test_cost_bits(self):
        config = TwoLevelConfig(
            history_scope="global", pattern_scope="global", history_bits=4
        )
        # 1 register x 4 bits + 16 counters x 2 bits = 36 bits.
        assert config.cost_bits() == 36

    def test_yeh_patt_naming(self):
        assert TwoLevelConfig("global", "peraddr", 4).yeh_patt_name == "GAp"
        assert TwoLevelConfig("peraddr", "set", 4).yeh_patt_name == "PAs"

    def test_reset_clears_learning(self):
        predictor = two_level_4k()
        evaluate(predictor, trace_of([0] * 100))
        predictor.reset()
        assert predictor.predict(SITE) is True  # back to weakly-taken
