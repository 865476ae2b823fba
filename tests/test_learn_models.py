"""Learned-model unit behaviour: config validation, name parsing,
training determinism, and the shared-model fallback for unseen sites."""

import os
import subprocess
import sys

import pytest

from repro.ir import BranchSite
from repro.learn import (
    DEFAULT_SPLIT,
    LearnedConfig,
    LearnedPredictor,
    default_learned_configs,
    fit,
    model_to_json,
    parse_learned_name,
    training_cut,
)
from repro.profiling import Trace


def build_trace(n=60):
    return Trace.from_events(
        (BranchSite("f", f"b{index % 3}"), index % 4 != 0) for index in range(n)
    )


# -- config validation -------------------------------------------------------


def test_config_defaults_and_name():
    config = LearnedConfig()
    assert config.name == "learned-perceptron-global-8bit"
    assert config.feature_bits == 8
    assert LearnedConfig(scope="hybrid", history_bits=4).feature_bits == 8


def test_config_theta_default_follows_width():
    config = LearnedConfig(history_bits=8)
    assert config.resolved_theta(8) == int(1.93 * 8 + 14)
    assert LearnedConfig(theta=3).resolved_theta(8) == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "tree"},
        {"scope": "galactic"},
        {"history_bits": 0},
        {"history_bits": 13},
        {"scope": "hybrid", "history_bits": 7},  # 14 feature bits > cap
        {"epochs": 0},
        {"epochs": 9},
        {"theta": -1},
        {"learning_rate": 0.0},
        {"learning_rate": float("nan")},
        {"weight_limit": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        LearnedConfig(**kwargs)


# -- name parsing ------------------------------------------------------------


def test_parse_learned_name_roundtrips_defaults():
    for config in default_learned_configs():
        parsed = parse_learned_name(config.name)
        assert parsed is not None
        assert parsed.kind == config.kind
        assert parsed.scope == config.scope
        assert parsed.history_bits == config.history_bits


@pytest.mark.parametrize(
    "name", ["profile", "two-level-4k", "learned", "learned-perceptron-global-8"]
)
def test_parse_learned_name_ignores_foreign_names(name):
    assert parse_learned_name(name) is None


def test_parse_learned_name_rejects_bad_width():
    with pytest.raises(ValueError):
        parse_learned_name("learned-perceptron-global-99bit")


# -- training ----------------------------------------------------------------


def test_training_cut_bounds():
    assert training_cut(100, 0.5) == 50
    assert training_cut(100, 1.0) == 100
    assert training_cut(0, 0.5) == 0
    for bad in (0.0, -0.5, 1.5, float("nan"), True, "half"):
        with pytest.raises(ValueError):
            training_cut(100, bad)


def test_fit_learns_only_prefix_sites():
    early, late = BranchSite("f", "early"), BranchSite("f", "late")
    trace = Trace.from_events([(early, True)] * 40 + [(late, True)])
    model = fit(trace.columns(), LearnedConfig(history_bits=2), split=0.5)
    assert early in model.sites
    assert late not in model.sites


def test_unseen_site_uses_shared_model():
    trace = build_trace()
    model = fit(trace.columns(), LearnedConfig(history_bits=3), split=1.0)
    predictor = LearnedPredictor(model)
    predictor.reset()
    foreign = BranchSite("elsewhere", "b0")
    assert foreign not in model.sites
    # Mostly-taken training stream → zero-history shared guess is taken.
    assert predictor.predict(foreign) is True


def test_fit_is_deterministic_within_process():
    trace = build_trace()
    config = LearnedConfig(kind="logistic", scope="hybrid", history_bits=3)
    a = model_to_json(fit(trace.columns(), config, DEFAULT_SPLIT))
    b = model_to_json(fit(trace.columns(), config, DEFAULT_SPLIT))
    assert a == b


_HASHSEED_SCRIPT = r"""
from repro.ir import BranchSite
from repro.learn import LearnedConfig, fit, model_to_json
from repro.profiling import Trace

trace = Trace.from_events(
    (BranchSite("f", "b%d" % (index % 3)), index % 4 != 0) for index in range(60)
)
for config in (
    LearnedConfig(),
    LearnedConfig(kind="logistic", scope="peraddr", history_bits=4),
    LearnedConfig(scope="hybrid", history_bits=3),
):
    print(model_to_json(fit(trace.columns(), config, 0.5)))
"""


def test_fit_is_pythonhashseed_independent():
    outputs = []
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), os.path.abspath("src")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_epochs_refine_weights():
    trace = build_trace(200)
    one = fit(trace.columns(), LearnedConfig(history_bits=4, epochs=1), 1.0)
    two = fit(trace.columns(), LearnedConfig(history_bits=4, epochs=2), 1.0)
    assert model_to_json(one) != model_to_json(two)


def test_predictor_contract_predict_update_reset():
    trace = build_trace()
    model = fit(trace.columns(), LearnedConfig(scope="peraddr", history_bits=3), 1.0)
    predictor = LearnedPredictor(model)
    predictor.reset()
    site = trace.sites[0]
    first = predictor.predict(site)
    for _ in range(3):
        predictor.update(site, not first)
    predictor.reset()
    # Reset restores the zero-history decision.
    assert predictor.predict(site) is first
