"""Learned-predictor batch-kernel parity.

Same contract as ``test_predictors_batch_parity``: for every learned
kind × scope, ``evaluate_many`` (LUT batch kernels) must be byte-
identical to the sequential reference ``evaluate`` — and the numpy and
no-numpy (``REPRO_NO_NUMPY``, sequential reference) modes must agree
with each other — on arbitrary traces.  Training itself must also be
mode-independent: the weights a ``fit`` produces under numpy columns
equal the pure-Python column pass's exactly.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.ir import BranchSite
from repro.learn import LearnedConfig, LearnedPredictor, fit, holdout_trace, model_to_json
from repro.predictors import evaluate, evaluate_many
from repro.profiling import Trace, trace_from_bytes, trace_to_bytes

from conftest import NUMPY_MODES, numpy_mode


#: Every kind × scope, with small widths so tiny random traces still
#: exercise seen *and* unseen pattern rows.  The 5- and 6-bit hybrids
#: concatenate two registers into more than the 8 bits of their uint8
#: register columns, so they check that the numpy route widens first.
LEARNED_CONFIGS = [
    LearnedConfig(kind="perceptron", scope="global", history_bits=3),
    LearnedConfig(kind="perceptron", scope="peraddr", history_bits=3),
    LearnedConfig(kind="perceptron", scope="hybrid", history_bits=2),
    LearnedConfig(kind="perceptron", scope="hybrid", history_bits=5),
    LearnedConfig(kind="logistic", scope="global", history_bits=3),
    LearnedConfig(kind="logistic", scope="peraddr", history_bits=3),
    LearnedConfig(kind="logistic", scope="hybrid", history_bits=2),
    LearnedConfig(kind="logistic", scope="hybrid", history_bits=6),
]


def build_trace(events):
    trace = Trace()
    for site_index, taken in events:
        trace.record(BranchSite("f", f"b{site_index}"), taken)
    return trace


def learned_predictors(trace, split):
    columns = trace.columns()
    return [
        LearnedPredictor(fit(columns, config, split))
        for config in LEARNED_CONFIGS
    ]


def assert_results_identical(reference, batch):
    assert len(reference) == len(batch)
    for a, b in zip(reference, batch):
        assert a.predictor == b.predictor
        assert a.events == b.events
        assert a.mispredictions == b.mispredictions
        assert a.per_site == b.per_site


events_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=200
)
split_strategy = st.sampled_from([0.25, 0.5, 1.0])


@given(events_strategy, split_strategy, st.sampled_from(NUMPY_MODES))
@settings(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_learned_batch_kernels_match_sequential_evaluate(events, split, no_numpy):
    with numpy_mode(no_numpy):
        trace = build_trace(events)
        # Evaluate on the *whole* trace: frozen models, unseen suffix
        # sites route through the shared model, exercising every row
        # type the kernels gather.
        reference = [
            evaluate(predictor, trace)
            for predictor in learned_predictors(trace, split)
        ]
        batch = evaluate_many(learned_predictors(trace, split), trace)
        assert_results_identical(reference, batch)


@given(events_strategy, split_strategy)
@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_learned_numpy_and_fallback_agree(events, split):
    trace_bytes = trace_to_bytes(build_trace(events))
    documents = []
    modes = []
    for disabled in (False, True):
        with numpy_mode(disabled):
            trace = trace_from_bytes(trace_bytes)
            columns = trace.columns()
            models = [fit(columns, config, split) for config in LEARNED_CONFIGS]
            documents.append([model_to_json(model) for model in models])
            modes.append(
                evaluate_many(
                    [LearnedPredictor(model) for model in models], trace
                )
            )
    # Training is mode-independent down to the serialized weights...
    assert documents[0] == documents[1]
    # ...and so is every evaluation result.
    assert_results_identical(*modes)


@given(events_strategy)
@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_unseen_sites_use_shared_model(events):
    """A model trained on a foreign trace (different site names) must
    predict every event through its shared sub-model — identically in
    stepper and batch form."""
    foreign = build_trace(events)
    target = Trace()
    for index, (site_index, taken) in enumerate(events):
        target.record(BranchSite("g", f"x{site_index}"), taken)
    for config in LEARNED_CONFIGS:
        model = fit(foreign.columns(), config, 1.0)
        reference = evaluate(LearnedPredictor(model), target)
        [batch] = evaluate_many([LearnedPredictor(model)], target)
        assert reference.mispredictions == batch.mispredictions
        assert reference.per_site == batch.per_site


def test_holdout_trace_is_the_suffix():
    events = [(i % 3, i % 2 == 0) for i in range(20)]
    trace = build_trace(events)
    hold = holdout_trace(trace, 0.5)
    assert len(hold) == 10
    expected = [(f"b{s}", t) for s, t in events[10:]]
    got = [(hold.sites[sid].block, bool(d)) for sid, d in hold.events()]
    assert got == expected
