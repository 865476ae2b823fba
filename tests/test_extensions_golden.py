"""Golden parity: the run-observing experiments print recorded text.

``tests/data/extensions_golden.json`` holds the stdout of
``python -m repro.experiments <name> --scale 1`` for ``alignment``
(taken-transfer counts), ``scheduling`` (block and edge weights) and
``costfn`` (the i-cache fetch stream): the consumers of the
interpreter's transfer log.  A change to how a run is observed must
keep it unchanged.

Regenerate it only when one of these experiments changes on purpose::

    PYTHONPATH=src python tests/test_extensions_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from typing import Dict

import pytest

from repro.experiments.cli import main

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "extensions_golden.json"
)

EXPERIMENTS = ["alignment", "scheduling", "costfn"]


def record(name: str) -> str:
    """The CLI's stdout for experiment *name* at scale 1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([name, "--scale", "1"]) == 0
    return out.getvalue()


def _load_golden() -> Dict[str, str]:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_matches_golden(name):
    assert record(name) == _load_golden()[name]


def test_golden_covers_every_experiment():
    assert sorted(_load_golden()) == sorted(EXPERIMENTS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_extensions_golden.py --write")
    golden = {name: record(name) for name in EXPERIMENTS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
