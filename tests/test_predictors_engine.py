"""Single-pass engine tests: `evaluate_many` ≡ sequential `evaluate`.

The property test drives every predictor family — static heuristics,
dynamic counters, all nine Yeh/Patt two-level variants and the
semi-static table strategies — over random traces and requires exact
result identity (events, mispredictions, per-site breakdown *and* site
ordering) between the single-pass engine and the sequential reference
implementation, for the batch kernels, the closed-form fast path and
the sequential route a custom subclass without a kernel takes.  Without
numpy (``REPRO_NO_NUMPY``) every online predictor takes that sequential
route, so the route-counting tests expect it there.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir import BranchSite
from repro.obs import OBS
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    CorrelationPredictor,
    FixedMapPredictor,
    LastDirection,
    LoopCorrelationPredictor,
    LoopPredictor,
    Predictor,
    ProfilePredictor,
    SaturatingCounter,
    all_yeh_patt_variants,
    evaluate,
    evaluate_many,
)
from repro.profiling import ProfileData, Trace
from repro.profiling.columns import get_numpy

SITES = [BranchSite("f", f"b{i}") for i in range(6)]

events_strategy = st.lists(
    st.tuples(st.integers(0, len(SITES) - 1), st.booleans()), max_size=200
)


def build_trace(events):
    return Trace.from_events((SITES[index], taken) for index, taken in events)


def predictor_families(trace):
    """One representative per predictor family, online and closed-form."""
    profile = ProfileData.from_trace(trace)
    predictors = [
        AlwaysTaken(),
        AlwaysNotTaken(),
        FixedMapPredictor(
            "alternating", {site: bool(i % 2) for i, site in enumerate(SITES)}
        ),
        LastDirection(),
        SaturatingCounter(1),
        SaturatingCounter(2),
        ProfilePredictor(profile),
        CorrelationPredictor(profile, 1),
        CorrelationPredictor(profile, 2),
        LoopPredictor(profile, 1),
        LoopPredictor(profile, 3),
        LoopCorrelationPredictor(profile),
    ]
    predictors.extend(all_yeh_patt_variants(3).values())
    return predictors


class NoKernelLastDirection(Predictor):
    """A custom online predictor without a ``step_batch`` kernel."""

    def __init__(self):
        super().__init__("custom-last-direction")
        self._last = {}

    def reset(self):
        self._last = {}

    def predict(self, site):
        return self._last.get(site, True)

    def update(self, site, taken):
        self._last[site] = taken


def engine_counters():
    return OBS.counters("engine.")


def assert_results_identical(actual, expected):
    assert actual.predictor == expected.predictor
    assert actual.events == expected.events
    assert actual.mispredictions == expected.mispredictions
    assert list(actual.per_site) == list(expected.per_site)
    assert actual.per_site == expected.per_site


@given(events_strategy)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_evaluate_many_matches_sequential(events):
    trace = build_trace(events)
    predictors = predictor_families(trace)
    expected = [evaluate(predictor, trace) for predictor in predictors]
    actual = evaluate_many(predictors, trace)
    assert len(actual) == len(expected)
    for act, exp in zip(actual, expected):
        assert_results_identical(act, exp)


@given(events_strategy)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_evaluate_many_custom_subclass_matches_sequential(events):
    # A subclass whose step_batch returns None is scored by the
    # sequential reference itself, alongside the kernel families.
    trace = build_trace(events)
    predictors = predictor_families(trace) + [NoKernelLastDirection()]
    expected = [evaluate(predictor, trace) for predictor in predictors]
    actual = evaluate_many(predictors, trace)
    for act, exp in zip(actual, expected):
        assert_results_identical(act, exp)
    # ... and agrees with the built-in family it mirrors.
    assert actual[-1].per_site == evaluate(LastDirection(), trace).per_site


@given(events_strategy)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_evaluate_many_is_repeatable(events):
    # A second pass over the same predictors must not be polluted by
    # the first pass's state.
    trace = build_trace(events)
    predictors = predictor_families(trace)
    first = evaluate_many(predictors, trace)
    second = evaluate_many(predictors, trace)
    for a, b in zip(first, second):
        assert_results_identical(a, b)


def small_trace():
    return Trace.from_events(
        [(SITES[0], taken) for taken in (True, True, False, True)]
        + [(SITES[1], taken) for taken in (False, False)]
    )


def test_closed_form_set_does_not_scan():
    # All-order-independent predictor sets are scored from per-site
    # counts alone; the trace is never replayed — and the events land
    # in the closed_form_events bucket, not the scanned-events rate.
    OBS.reset(prefix="engine.")
    results = evaluate_many([AlwaysTaken(), AlwaysNotTaken()], small_trace())
    stats = engine_counters()
    assert stats["engine.events"] == 0
    assert stats["engine.closed_form_events"] == 6
    assert stats["engine.closed_form_predictors"] == 2
    assert stats["engine.batch_predictors"] == 0
    assert results[0].mispredictions == 3  # not-taken events
    assert results[1].mispredictions == 3  # taken events


def test_mixed_set_uses_batch_kernels():
    # The dynamic families score through their numpy kernels (without
    # numpy, through the sequential reference), and the events count
    # as online work either way.
    OBS.reset(prefix="engine.")
    trace = OBS.start_trace()
    try:
        evaluate_many(
            [AlwaysTaken(), LastDirection(), SaturatingCounter(2)], small_trace()
        )
    finally:
        OBS.end_trace()
    stats = engine_counters()
    assert stats["engine.events"] == 6
    assert stats["engine.closed_form_events"] == 0
    assert stats["engine.closed_form_predictors"] == 1
    assert stats["engine.seconds"] > 0.0
    (span,) = trace.span_dicts()
    if get_numpy() is None:
        assert stats["engine.batch_predictors"] == 0
        assert span["attrs"]["sequential"] == 2
    else:
        assert stats["engine.batch_predictors"] == 2
        assert span["attrs"]["batched"] == 2


def test_mixed_set_scans_once_without_batch():
    # A predictor without a kernel is replayed sequentially, once, and
    # its events count as online work.
    OBS.reset(prefix="engine.")
    trace = OBS.start_trace()
    try:
        evaluate_many([AlwaysTaken(), NoKernelLastDirection()], small_trace())
    finally:
        OBS.end_trace()
    stats = engine_counters()
    assert stats["engine.events"] == 6
    assert stats["engine.batch_predictors"] == 0
    assert stats["engine.closed_form_predictors"] == 1
    (span,) = trace.span_dicts()
    assert span["attrs"]["sequential"] == 1
    assert span["attrs"]["batched"] == 0


def test_events_split_accumulates_across_calls():
    # Regression: engine.events used to count every call's events even
    # when no online work ran, inflating the --timings events/sec rate.
    OBS.reset(prefix="engine.")
    trace = OBS.start_trace()
    try:
        evaluate_many([AlwaysTaken()], small_trace())
        evaluate_many([LastDirection()], small_trace())
        evaluate_many([AlwaysNotTaken()], small_trace())
    finally:
        OBS.end_trace()
    stats = engine_counters()
    assert stats["engine.events"] == 6
    assert stats["engine.closed_form_events"] == 12
    online = trace.span_dicts()[1]["attrs"]
    if get_numpy() is None:
        assert stats["engine.batch_predictors"] == 0
        assert online["sequential"] == 1
    else:
        assert stats["engine.batch_predictors"] == 1
        assert online["batched"] == 1


class RaisingKernelLastDirection(NoKernelLastDirection):
    """Last-direction whose ``step_batch`` must never run."""

    def step_batch(self, columns):
        raise AssertionError("step_batch called without numpy")


def test_no_numpy_scores_online_predictors_sequentially(monkeypatch):
    # Without numpy the engine never calls a kernel: every online
    # predictor is scored, exactly, by the sequential reference.
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    trace = small_trace()
    predictors = [AlwaysTaken(), RaisingKernelLastDirection(), SaturatingCounter(2)]
    OBS.reset(prefix="engine.")
    actual = evaluate_many(predictors, trace)
    assert engine_counters()["engine.batch_predictors"] == 0
    for act, predictor in zip(actual, predictors):
        assert_results_identical(act, evaluate(predictor, trace))
    assert actual[1].per_site == evaluate(LastDirection(), trace).per_site


def test_view_built_without_numpy_is_rebuilt_for_a_kernel(monkeypatch):
    # A view uses numpy only if numpy was loaded when it was built, so a
    # view built without it is rebuilt once an online predictor loads
    # numpy, and the kernels' results equal the sequential route's.
    pytest.importorskip("numpy")
    trace = build_trace([(index % 4, index % 3 == 0) for index in range(64)])
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    view = trace.columns()
    assert view.np is None
    expected = evaluate_many([LastDirection(), SaturatingCounter(2)], trace)
    monkeypatch.delenv("REPRO_NO_NUMPY")
    OBS.reset(prefix="engine.")
    actual = evaluate_many([LastDirection(), SaturatingCounter(2)], trace)
    assert engine_counters()["engine.batch_predictors"] == 2
    rebuilt = trace.columns()
    assert rebuilt is not view and rebuilt.np is not None
    for act, exp in zip(actual, expected):
        assert_results_identical(act, exp)


def test_empty_predictor_set():
    assert evaluate_many([], small_trace()) == []


def test_empty_trace():
    results = evaluate_many([AlwaysTaken(), LastDirection()], Trace.from_events([]))
    for result in results:
        assert result.events == 0
        assert result.mispredictions == 0
        assert result.per_site == {}


def test_stats_snapshot_is_independent():
    OBS.reset(prefix="engine.")
    before = engine_counters()
    evaluate_many([LastDirection()], small_trace())
    assert before == {}
    assert engine_counters()["engine.events"] == 6
