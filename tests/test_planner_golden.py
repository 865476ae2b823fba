"""Golden parity: the planner reproduces recorded machine searches exactly.

``tests/data/planner_golden.json`` holds, for each of the 8 benchmarks
at scale 1, every option ``ReplicationPlanner(max_states=10)`` keeps per
branch site — its state count, correct count, extra size, family and
the sha256 of its serialised machine — plus the Table 5 best
misprediction rates for n = 2..10.  A speed-up to the machine search
must keep it unchanged.

Regenerate it only when the search's output changes on purpose::

    PYTHONPATH=src python tests/test_planner_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

from repro import replication, workloads
from repro.statemachines import machine_to_json

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "planner_golden.json"
)

SCALE = 1
MAX_STATES = 10


def record(name: str) -> Dict[str, object]:
    """Every kept option per site and the Table 5 rates of *name*."""
    program = workloads.get_program(name)
    profile = workloads.get_profile(name, SCALE, 0)
    planner = replication.ReplicationPlanner(program, profile, max_states=MAX_STATES)
    sites = {}
    for site, plan in sorted(planner.plans.items()):
        sites["/".join(site)] = [
            {
                "n_states": option.n_states,
                "correct": option.correct,
                "extra_size": option.extra_size,
                "family": option.family,
                "machine_sha256": hashlib.sha256(
                    machine_to_json(option.scored.machine).encode()
                ).hexdigest(),
            }
            for option in plan.options
        ]
    rates = {
        str(n): planner.best_misprediction_rate(n) for n in range(2, MAX_STATES + 1)
    }
    return {"sites": sites, "table5_rates": rates}


def _load_golden() -> Dict[str, dict]:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workloads.BENCHMARK_NAMES)
def test_planner_matches_golden(name):
    assert record(name) == _load_golden()[name]


def test_golden_covers_every_benchmark():
    golden = _load_golden()
    assert sorted(golden) == sorted(workloads.BENCHMARK_NAMES)
    assert all(entry["sites"] for entry in golden.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_planner_golden.py --write")
    golden = {name: record(name) for name in workloads.BENCHMARK_NAMES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
