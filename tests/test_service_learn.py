"""Train-as-a-service contract: POST /train, learned /predict, the
models cache, and the learn.* counters — through ``handlers.dispatch``
(which validates each body before its handler runs), no sockets."""

import json

import pytest

from repro.learn import FORMAT_VERSION, model_from_json
from repro.obs import OBS
from repro.service import handlers
from repro.service.state import ApiError, ServiceConfig, ServiceState

LEARNED = "learned-perceptron-global-8bit"


@pytest.fixture()
def state():
    state = ServiceState(ServiceConfig())
    yield state
    state.close()


def _counter(name):
    return OBS.snapshot().counters.get(name, 0)


def _train(state, body):
    return handlers.dispatch(state, "POST", "/train", body, proxy=False)[1]


def _predict(state, body):
    return handlers.dispatch(state, "POST", "/predict", body, proxy=False)[1]


def test_train_payload_contract(state):
    before = _counter("learn.train.requests")
    fits_before = _counter("learn.train.fits")
    payload = _train(
        state, {"name": "compress", "predictor": LEARNED}
    )
    assert payload["source"] == "computed"
    assert payload["benchmark"] == "compress"
    assert payload["predictor"] == LEARNED
    assert payload["model_format_version"] == FORMAT_VERSION
    assert payload["train_events"] > 0
    assert payload["sites_learned"] > 0
    holdout = payload["holdout"]
    assert holdout["events"] > 0
    assert 0.0 <= holdout["misprediction_rate"] <= 1.0
    # The embedded document is a valid, loadable model.
    model = model_from_json(json.dumps(payload["model"]))
    assert model.config.name == LEARNED
    assert _counter("learn.train.requests") == before + 1
    assert _counter("learn.train.fits") == fits_before + 1


def test_train_warm_replay_served_from_lru(state):
    body = {"name": "compress", "predictor": LEARNED}
    first = _train(state, dict(body))
    second = _train(state, dict(body))
    assert first["source"] == "computed"
    assert second["source"] == "lru"
    assert second["model"] == first["model"]


def test_train_full_split_omits_holdout(state):
    payload = _train(
        state, {"name": "compress", "predictor": LEARNED, "split": 1.0}
    )
    assert "holdout" not in payload
    assert payload["split"] == 1.0


def test_train_rejects_non_learned_predictor(state):
    with pytest.raises(ApiError) as excinfo:
        _train(state, {"name": "compress", "predictor": "profile"})
    assert excinfo.value.status == 404
    assert excinfo.value.code == "unknown_predictor"
    assert LEARNED in excinfo.value.details["available"]


def test_train_rejects_bad_split_and_bad_width(state):
    for split in (0.0, -0.1, 2, True, "half"):
        with pytest.raises(ApiError) as excinfo:
            _train(
                state, {"name": "compress", "predictor": LEARNED, "split": split}
            )
        assert excinfo.value.status == 400
    with pytest.raises(ApiError) as excinfo:
        _train(
            state,
            {"name": "compress", "predictor": "learned-perceptron-global-99bit"},
        )
    assert excinfo.value.status == 400


def test_train_unknown_benchmark_is_404(state):
    with pytest.raises(ApiError) as excinfo:
        _train(state, {"name": "nope", "predictor": LEARNED})
    assert excinfo.value.status == 404
    assert excinfo.value.code == "unknown_benchmark"


def test_predict_accepts_learned_names(state):
    payload = _predict(
        state, {"name": "compress", "predictor": LEARNED}
    )
    assert payload["source"] == "computed"
    assert payload["predictor"] == LEARNED
    assert payload["events"] > 0
    assert payload["order_independent"] is False
    assert payload["learned"]["model_format_version"] == FORMAT_VERSION
    assert payload["sites"]
    total = sum(entry["mispredictions"] for entry in payload["sites"])
    assert total == payload["mispredictions"]
    # Warm replay comes from the predictions cache.
    again = _predict(state, {"name": "compress", "predictor": LEARNED})
    assert again["source"] == "lru"


def test_predict_learned_agrees_with_train_holdout(state):
    trained = _train(
        state, {"name": "compress", "predictor": LEARNED}
    )
    predicted = _predict(
        state, {"name": "compress", "predictor": LEARNED}
    )
    assert predicted["events"] == trained["holdout"]["events"]
    assert predicted["mispredictions"] == trained["holdout"]["mispredictions"]


def test_predict_learned_reuses_cached_model(state):
    fits_before = _counter("learn.train.fits")
    _train(state, {"name": "compress", "predictor": LEARNED})
    _predict(state, {"name": "compress", "predictor": LEARNED})
    # train + predict at the default split share one models-cache entry.
    assert _counter("learn.train.fits") == fits_before + 1
    assert len(state.models) == 1


def test_classic_predictors_unaffected(state):
    payload = _predict(
        state, {"name": "compress", "predictor": "profile"}
    )
    assert payload["predictor"] == "profile"
    with pytest.raises(ApiError) as excinfo:
        _predict(
            state, {"name": "compress", "predictor": "no-such-predictor"}
        )
    assert excinfo.value.status == 404


def test_stats_reports_models_cache(state):
    _train(state, {"name": "compress", "predictor": LEARNED})
    stats = handlers.handle_stats(state, None)
    sizes = stats["service"]["cache_sizes"]
    assert sizes["models"] == 1


def test_train_route_registered():
    methods, _ = handlers.match_route("/train")
    route = methods["POST"]
    assert route.handler is handlers.handle_train
    assert route.heavy and route.kind == handlers.JSON
    assert route.name == "train"
    # a known path: the wrong method is a 405, not a 404
    with pytest.raises(ApiError) as excinfo:
        handlers.dispatch(None, "GET", "/train", {}, proxy=False)
    assert excinfo.value.status == 405
