"""Round-trip and rejection tests for the learned-model wire format."""

import json

import pytest

from repro.ir import BranchSite
from repro.learn import (
    FORMAT_VERSION,
    LearnedConfig,
    LearnedPredictor,
    ModelFormatError,
    fit,
    model_from_json,
    model_to_json,
)
from repro.predictors import evaluate
from repro.profiling import Trace


def build_trace():
    pattern = [True, True, False, True, False, False, True, True]
    return Trace.from_events(
        (BranchSite("f", f"b{index % 4}"), pattern[index % 8]) for index in range(120)
    )


CONFIGS = [
    LearnedConfig(kind="perceptron", scope="global", history_bits=4),
    LearnedConfig(kind="perceptron", scope="peraddr", history_bits=4),
    LearnedConfig(kind="perceptron", scope="hybrid", history_bits=3),
    LearnedConfig(kind="logistic", scope="global", history_bits=4, learning_rate=0.5),
    LearnedConfig(kind="logistic", scope="hybrid", history_bits=2, epochs=2),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_roundtrip_reproduces_model_exactly(config):
    trace = build_trace()
    model = fit(trace.columns(), config, 0.5)
    restored = model_from_json(model_to_json(model))
    assert restored.config == model.config
    assert restored.shared == model.shared
    assert restored.sites == model.sites
    # The restored model predicts identically, event for event.
    a = evaluate(LearnedPredictor(model), trace)
    b = evaluate(LearnedPredictor(restored), trace)
    assert a.mispredictions == b.mispredictions
    assert a.per_site == b.per_site
    # Serialization is a fixed point.
    assert model_to_json(restored) == model_to_json(model)


def test_document_carries_version_stamp():
    model = fit(build_trace().columns(), CONFIGS[0], 0.5)
    document = json.loads(model_to_json(model))
    assert document["version"] == FORMAT_VERSION
    assert document["kind"] == "perceptron"
    assert sorted(entry["function"] + ":" + entry["block"]
                  for entry in document["sites"]) == [
        f"f:b{i}" for i in range(4)
    ]


def _valid_document(config=CONFIGS[0]):
    model = fit(build_trace().columns(), config, 0.5)
    return json.loads(model_to_json(model))


def _reject(document):
    with pytest.raises(ModelFormatError):
        model_from_json(json.dumps(document))


def test_rejects_bad_json():
    with pytest.raises(ModelFormatError, match="bad JSON"):
        model_from_json("{nope")


def test_rejects_non_object_document():
    _reject([1, 2, 3])


def test_rejects_missing_version():
    document = _valid_document()
    del document["version"]
    _reject(document)


def test_rejects_unknown_version():
    document = _valid_document()
    document["version"] = FORMAT_VERSION + 1
    _reject(document)


def test_rejects_bool_version():
    document = _valid_document()
    document["version"] = True
    _reject(document)


def test_rejects_unknown_kind_and_scope():
    document = _valid_document()
    document["kind"] = "svm"
    _reject(document)
    document = _valid_document()
    document["scope"] = "everywhere"
    _reject(document)


def test_rejects_wrong_weight_width():
    document = _valid_document()
    document["shared"]["weights"].append(0)
    _reject(document)
    document = _valid_document()
    document["sites"][0]["weights"] = document["sites"][0]["weights"][:-1]
    _reject(document)


def test_rejects_non_numeric_and_bool_weights():
    document = _valid_document()
    document["shared"]["weights"][0] = "7"
    _reject(document)
    document = _valid_document()
    document["sites"][0]["bias"] = True
    _reject(document)
    document = _valid_document()
    document["shared"]["bias"] = float("inf")
    _reject(document)


@pytest.mark.parametrize(
    "config, field, value",
    [
        (CONFIGS[3], ("shared", "weights", 0), 10**400),
        (CONFIGS[0], ("shared", "weights", 0), 10**400),
        (CONFIGS[0], ("shared", "weights", 0), 0.5),
        (CONFIGS[0], ("sites", 0, "weights", 1), 10**9),
        (CONFIGS[0], ("shared", "bias"), 2.5),
    ],
    ids=["logistic-huge-int", "perceptron-huge-int", "perceptron-fraction",
         "perceptron-beyond-limit", "perceptron-fractional-bias"],
)
def test_rejects_values_training_cannot_produce(config, field, value):
    """A perceptron holds only ints within ±weight_limit, and no model
    holds a number beyond the float range."""
    document = _valid_document(config)
    target = document
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    _reject(document)


def test_rejects_duplicate_and_malformed_sites():
    document = _valid_document()
    document["sites"].append(dict(document["sites"][0]))
    _reject(document)
    document = _valid_document()
    document["sites"][0]["function"] = 7
    _reject(document)
    document = _valid_document()
    del document["sites"][0]["block"]
    _reject(document)


def test_rejects_missing_train_block_and_bad_hyperparams():
    document = _valid_document()
    del document["train"]
    _reject(document)
    document = _valid_document()
    document["train"]["epochs"] = 0
    _reject(document)
    document = _valid_document()
    document["history_bits"] = 99
    _reject(document)


def test_accepts_empty_sites():
    document = _valid_document()
    document["sites"] = []
    model = model_from_json(json.dumps(document))
    assert model.sites == {}
    # Every prediction now routes through the shared model.
    result = evaluate(LearnedPredictor(model), build_trace())
    assert result.events == 120
