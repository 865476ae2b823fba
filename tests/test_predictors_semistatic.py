"""Semi-static predictor tests: profile, correlation, loop, combined."""

import random

import pytest

from repro.ir import BranchSite
from repro.predictors import (
    CorrelationPredictor,
    LoopCorrelationPredictor,
    LoopPredictor,
    ProfilePredictor,
    evaluate,
    semistatic_suite,
)
from repro.profiling import ProfileData, Trace

SITE = BranchSite("f", "b")


def trace_of(bits, site=SITE) -> Trace:
    return Trace.from_events((site, bool(bit)) for bit in bits)


class TestProfilePredictor:
    def test_majority_direction(self):
        profile = ProfileData.from_trace(trace_of([1, 1, 1, 0]))
        assert ProfilePredictor(profile).predict(SITE) is True

    def test_tie_predicts_taken(self):
        profile = ProfileData.from_trace(trace_of([1, 0]))
        assert ProfilePredictor(profile).predict(SITE) is True

    def test_unseen_branch_uses_default(self):
        profile = ProfileData.from_trace(trace_of([1]))
        predictor = ProfilePredictor(profile, default=False)
        assert predictor.predict(BranchSite("f", "unknown")) is False

    def test_misprediction_rate_is_minority_share(self):
        trace = trace_of([1, 1, 1, 0] * 25)
        profile = ProfileData.from_trace(trace)
        result = evaluate(ProfilePredictor(profile), trace)
        assert result.misprediction_rate == pytest.approx(0.25)


class TestLoopPredictor:
    def test_alternating_branch_nearly_perfect(self):
        trace = trace_of([1, 0] * 100)
        profile = ProfileData.from_trace(trace)
        result = evaluate(LoopPredictor(profile, 1), trace)
        assert result.mispredictions <= 1  # warmup only

    def test_period_four_needs_depth(self):
        bits = [1, 1, 1, 0] * 100
        trace = trace_of(bits)
        profile = ProfileData.from_trace(trace)
        shallow = evaluate(LoopPredictor(profile, 1), trace)
        deep = evaluate(LoopPredictor(profile, 3), trace)
        assert deep.mispredictions < shallow.mispredictions
        assert deep.mispredictions <= 3

    def test_unseen_pattern_falls_back_to_bias(self):
        train = trace_of([1] * 20)
        profile = ProfileData.from_trace(train)
        predictor = LoopPredictor(profile, 9)
        predictor.reset()
        # Feed an unseen history: after a not-taken the pattern is new.
        predictor.update(SITE, False)
        assert predictor.predict(SITE) is True  # bias

    def test_depth_beyond_profile_rejected(self):
        profile = ProfileData.from_trace(trace_of([1]), local_bits=4)
        with pytest.raises(ValueError):
            LoopPredictor(profile, 9)


def _coin_trace(a, b):
    """300 random coins, each seen by *a* and then repeated by *b*."""
    rng = random.Random(7)
    coins = [rng.random() < 0.5 for _ in range(300)]
    return Trace.from_events(event for coin in coins for event in ((a, coin), (b, coin)))


class TestCorrelationPredictor:
    def test_cross_branch_correlation(self):
        # Branch b always repeats what branch a just did.
        a, b = BranchSite("f", "a"), BranchSite("f", "b")
        trace = _coin_trace(a, b)
        profile = ProfileData.from_trace(trace)
        result = evaluate(CorrelationPredictor(profile, 1), trace)
        b_stats = result.per_site[b]
        assert b_stats.mispredictions <= 1

    def test_profile_cannot_catch_it(self):
        a, b = BranchSite("f", "a"), BranchSite("f", "b")
        trace = _coin_trace(a, b)
        profile = ProfileData.from_trace(trace)
        result = evaluate(ProfilePredictor(profile), trace)
        assert result.per_site[b].rate > 0.3

    def test_depth_beyond_profile_rejected(self):
        profile = ProfileData.from_trace(trace_of([1]), global_bits=2)
        with pytest.raises(ValueError):
            CorrelationPredictor(profile, 3)


class TestLoopCorrelation:
    def _correlated_trace(self):
        a, b, c = (BranchSite("f", x) for x in "abc")
        rng = random.Random(3)
        events = []
        for index in range(400):
            coin = rng.random() < 0.5
            events.append((a, coin))  # random: nothing helps
            events.append((b, coin))  # correlated with a
            events.append((c, index % 2 == 0))  # alternating: loop history
        return Trace.from_events(events), a, b, c

    def test_chooses_per_branch(self):
        trace, a, b, c = self._correlated_trace()
        profile = ProfileData.from_trace(trace)
        predictor = LoopCorrelationPredictor(profile)
        assert predictor.choice[c] == "loop"
        assert predictor.choice[b] == "correlation"

    def test_beats_both_components(self):
        trace, a, b, c = self._correlated_trace()
        profile = ProfileData.from_trace(trace)
        combined = evaluate(LoopCorrelationPredictor(profile), trace)
        loop_only = evaluate(LoopPredictor(profile, 9), trace)
        corr_only = evaluate(CorrelationPredictor(profile, 1), trace)
        assert combined.mispredictions <= loop_only.mispredictions
        assert combined.mispredictions <= corr_only.mispredictions

    def test_improved_sites(self):
        trace, a, b, c = self._correlated_trace()
        profile = ProfileData.from_trace(trace)
        predictor = LoopCorrelationPredictor(profile)
        improved = predictor.improved_sites(profile)
        assert b in improved and c in improved
        assert a not in improved or improved[a] < improved[b]


def test_suite_composition():
    profile = ProfileData.from_trace(trace_of([1, 0] * 10))
    suite = semistatic_suite(profile)
    names = [p.name for p in suite]
    assert names == [
        "profile",
        "1-bit-correlation",
        "1-bit-loop",
        "9-bit-loop",
        "loop-correlation",
    ]
