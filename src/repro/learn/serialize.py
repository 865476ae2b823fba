"""Versioned JSON wire format for trained models.

Mirrors ``statemachines.serialize``: documents carry a
``FORMAT_VERSION`` stamp, :func:`model_from_json` rejects missing or
unknown versions and malformed payloads with :class:`ModelFormatError`,
and a round trip reproduces the model exactly (weights travel as JSON
numbers, whose ``repr`` round-trips Python floats bit for bit).
"""

from __future__ import annotations

import json
import math
from typing import List, Optional

from ..ir import BranchSite
from .models import LearnedConfig, LearnedModel, ModelWeights

FORMAT_VERSION = 1


class ModelFormatError(Exception):
    """A learned-model document that cannot be decoded."""


def model_to_json(model: LearnedModel) -> str:
    """Serialise a trained model; sites are emitted sorted so the
    output is independent of training (dict-insertion) order."""
    config = model.config
    document = {
        "version": FORMAT_VERSION,
        "kind": config.kind,
        "scope": config.scope,
        "history_bits": config.history_bits,
        "train": {
            "epochs": config.epochs,
            "theta": config.theta,
            "learning_rate": config.learning_rate,
            "weight_limit": config.weight_limit,
        },
        "shared": {"bias": model.shared.bias, "weights": list(model.shared.weights)},
        "sites": [
            {
                "function": site.function,
                "block": site.block,
                "bias": entry.bias,
                "weights": list(entry.weights),
            }
            for site, entry in sorted(model.sites.items())
        ],
    }
    return json.dumps(document, indent=2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelFormatError(f"malformed model document: {message}")


def _number(value, what: str, limit: Optional[int]) -> float:
    """A JSON number that a model could hold: any finite float, or, with
    *limit* (a perceptron's ``weight_limit``), an int within ±limit —
    the only values training produces."""
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{what} must be a number",
    )
    if limit is not None:
        _require(
            isinstance(value, int) and -limit <= value <= limit,
            f"{what} must be an integer within ±{limit}",
        )
        return value
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    _require(finite, f"{what} must be finite")
    return value


def _weights(entry: dict, what: str, width: int, limit: Optional[int]) -> ModelWeights:
    bias = _number(entry.get("bias"), f"{what} bias", limit)
    weights = entry.get("weights")
    _require(isinstance(weights, list), f"{what} weights must be a list")
    _require(
        len(weights) == width,
        f"{what} weights must have {width} entries, got {len(weights)}",
    )
    values: List[float] = [
        _number(weight, f"{what} weight", limit) for weight in weights
    ]
    return ModelWeights(bias=bias, weights=values)


def model_from_json(text: str) -> LearnedModel:
    """Decode a model document, validating the version stamp and every
    field; raises :class:`ModelFormatError` on anything malformed."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ModelFormatError(f"bad JSON: {error}") from None
    if not isinstance(document, dict):
        raise ModelFormatError("document must be a JSON object")
    version = document.get("version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        train = document.get("train")
        _require(isinstance(train, dict), "train must be an object")
        try:
            config = LearnedConfig(
                kind=document["kind"],
                scope=document["scope"],
                history_bits=document["history_bits"],
                epochs=train["epochs"],
                theta=train["theta"],
                learning_rate=train["learning_rate"],
                weight_limit=train["weight_limit"],
            )
        except ValueError as error:
            raise ModelFormatError(f"malformed model document: {error}") from None
        limit = config.weight_limit if config.kind == "perceptron" else None
        shared_doc = document.get("shared")
        _require(isinstance(shared_doc, dict), "shared must be an object")
        shared = _weights(shared_doc, "shared", config.history_bits, limit)
        site_docs = document.get("sites")
        _require(isinstance(site_docs, list), "sites must be a list")
        sites = {}
        for entry in site_docs:
            _require(isinstance(entry, dict), "site entry must be an object")
            function = entry.get("function")
            block = entry.get("block")
            _require(
                isinstance(function, str) and isinstance(block, str),
                "site entry needs string function and block",
            )
            site = BranchSite(function, block)
            _require(site not in sites, f"duplicate site {site}")
            sites[site] = _weights(entry, f"site {site}", config.feature_bits, limit)
        return LearnedModel(config=config, shared=shared, sites=sites)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ModelFormatError(f"malformed model document: {error}") from None
