"""Golden parity: training reproduces recorded model weights exactly.

``tests/data/learn_golden.json`` holds, for each of the 8 benchmarks at
scales 1 and 2, the sha256 of ``model_to_json(fit(columns, config, 0.5))``
for every config in :data:`CONFIGS`: the default learned zoo plus four
configs whose weights reach their limit, so a broken clamp changes a
digest.  A speed-up to training must keep it unchanged, with numpy and
under ``REPRO_NO_NUMPY=1`` alike.

Regenerate it only when training's output changes on purpose::

    PYTHONPATH=src python tests/test_learn_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

from repro import workloads
from repro.learn import LearnedConfig, default_learned_configs, fit, model_to_json

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "learn_golden.json"
)

SCALES = (1, 2)

CONFIGS = default_learned_configs() + (
    LearnedConfig(weight_limit=2, theta=50),
    LearnedConfig(scope="hybrid", history_bits=2, weight_limit=1, epochs=3),
    LearnedConfig(scope="peraddr", history_bits=5, weight_limit=3, theta=0),
    LearnedConfig(kind="logistic", scope="hybrid", history_bits=3, epochs=2),
)


def config_key(config: LearnedConfig) -> str:
    return (
        f"{config.name}/epochs={config.epochs}/theta={config.theta}"
        f"/limit={config.weight_limit}"
    )


def record(name: str, scale: int) -> Dict[str, str]:
    """Per config, the digest of the model trained on *name* at *scale*."""
    columns = workloads.get_trace(name, scale, 0).columns()
    return {
        config_key(config): hashlib.sha256(
            model_to_json(fit(columns, config, 0.5)).encode()
        ).hexdigest()
        for config in CONFIGS
    }


def _load_golden() -> Dict[str, dict]:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", workloads.BENCHMARK_NAMES)
def test_fit_matches_golden(name, scale):
    assert record(name, scale) == _load_golden()[f"{name}@{scale}"]


def test_golden_covers_every_benchmark_and_config():
    golden = _load_golden()
    assert sorted(golden) == sorted(
        f"{name}@{scale}" for name in workloads.BENCHMARK_NAMES for scale in SCALES
    )
    keys = sorted(config_key(config) for config in CONFIGS)
    assert len(set(keys)) == len(CONFIGS)
    assert all(sorted(entry) == keys for entry in golden.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_learn_golden.py --write")
    golden = {
        f"{name}@{scale}": record(name, scale)
        for name in workloads.BENCHMARK_NAMES
        for scale in SCALES
    }
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
