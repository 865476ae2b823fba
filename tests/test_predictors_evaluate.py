"""Evaluation-engine tests: counters, per-site stats, ordering."""

import pytest

from repro.ir import BranchSite
from repro.predictors import (
    AlwaysTaken,
    EvaluationResult,
    LastDirection,
    Predictor,
    SiteStats,
    evaluate,
)
from repro.profiling import Trace

A = BranchSite("f", "a")
B = BranchSite("f", "b")


def mixed_trace() -> Trace:
    return Trace.from_events(
        [(A, True), (A, True), (A, False), (B, False), (B, False)]
    )


def test_event_and_misprediction_totals():
    result = evaluate(AlwaysTaken(), mixed_trace())
    assert result.events == 5
    assert result.mispredictions == 3  # A once, B twice


def test_per_site_breakdown():
    result = evaluate(AlwaysTaken(), mixed_trace())
    assert result.per_site[A].executions == 3
    assert result.per_site[A].mispredictions == 1
    assert result.per_site[B].executions == 2
    assert result.per_site[B].mispredictions == 2


def test_per_site_rates():
    result = evaluate(AlwaysTaken(), mixed_trace())
    assert result.per_site[B].rate == 1.0
    assert result.per_site[A].rate == pytest.approx(1 / 3)


def test_accuracy_complements_rate():
    result = evaluate(AlwaysTaken(), mixed_trace())
    assert result.accuracy + result.misprediction_rate == pytest.approx(1.0)


def test_predictor_sees_outcomes_in_order():
    observed = []

    class Spy(Predictor):
        def __init__(self):
            super().__init__("spy")

        def predict(self, site):
            return True

        def update(self, site, taken):
            observed.append((site, taken))

    evaluate(Spy(), mixed_trace())
    assert observed == [(A, True), (A, True), (A, False), (B, False), (B, False)]


def test_predict_called_before_update():
    class Strict(Predictor):
        def __init__(self):
            super().__init__("strict")
            self.pending = False

        def predict(self, site):
            assert not self.pending
            self.pending = True
            return True

        def update(self, site, taken):
            assert self.pending
            self.pending = False

    evaluate(Strict(), mixed_trace())


def test_reset_called_once():
    class Counting(LastDirection):
        resets = 0

        def reset(self):
            Counting.resets += 1
            super().reset()

    predictor = Counting()
    evaluate(predictor, mixed_trace())
    evaluate(predictor, mixed_trace())
    assert Counting.resets == 2


def test_result_str():
    result = EvaluationResult("x", 100, 25, {})
    assert "25.00%" in str(result)


def test_site_stats_zero_executions():
    assert SiteStats().rate == 0.0
