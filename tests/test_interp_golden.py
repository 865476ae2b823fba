"""Golden parity: the interpreter reproduces recorded runs bit for bit.

``tests/data/interp_golden.json`` holds, for each of the 8 benchmarks at
scale 1 and seed offset 0, a fingerprint of two runs: the original
program, and the program replicated by ``ReplicationPlanner(max_states=6)``
plus ``tradeoff_curve(max_size_factor=2.0)``.  A fingerprint is the
result's value, steps and branches, plus the sha256 of the output, of
the branch stream (site, direction and the frame-local history at 8
bits), of the stream of entered blocks and of the sorted edge counts.
The streams are rebuilt from the run's branch and transfer logs, in the
form the per-event callbacks they replaced reported them.

The fixture was recorded with the string-dispatched interpreter that the
pre-decoded one replaced.  Regenerate it only when the interpreter's
semantics change on purpose::

    PYTHONPATH=src python tests/test_interp_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

from repro import replication, workloads
from repro.interp import Machine

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "interp_golden.json")

SCALE = 1
MAX_STEPS = 100_000_000
HISTORY_BITS = 8


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(program, args, inputs) -> Dict[str, object]:
    """One fully instrumented run, summarised; a second, bare run must
    agree on everything the bare run reports."""
    machine = Machine(
        program, inputs, MAX_STEPS, track_history_bits=HISTORY_BITS,
        log_branches=True, log_transfers=True,
    )
    result = machine.run(*args)
    branches, transfers = machine.branch_log, machine.transfer_log
    sites = branches.sites(set(branches.codes))
    branch_hash = hashlib.sha256()
    for code, history in zip(branches.codes, branches.history):
        site = sites[code]
        branch_hash.update(f"{site[0]}\t{site[1]}\t{code & 1}\t{history}\n".encode())
    decoded = transfers.decode(set(transfers.codes))
    block_hash = hashlib.sha256()
    for code in transfers.codes:
        function, _source, target = decoded[code]
        block_hash.update(f"{function}\t{target}\n".encode())
    bare = Machine(program, inputs, MAX_STEPS).run(*args)
    assert (bare.value, bare.output, bare.steps, bare.branches) == (
        result.value, result.output, result.steps, result.branches
    )
    return {
        "value": result.value,
        "steps": result.steps,
        "branches": result.branches,
        "output_sha256": _sha(json.dumps(result.output)),
        "on_branch_sha256": branch_hash.hexdigest(),
        "on_block_sha256": block_hash.hexdigest(),
        "edge_counts_sha256": _sha(json.dumps(sorted(transfers.edge_counts().items()))),
    }


def replicated_program(name: str):
    """The benchmark replicated along its whole ``max_size_factor=2.0``
    curve, each site taking the machine of its last upgrade."""
    program = workloads.get_program(name)
    profile = workloads.get_profile(name, SCALE, 0)
    planner = replication.ReplicationPlanner(program, profile, max_states=6)
    chosen = {}
    for point in replication.tradeoff_curve(planner, max_size_factor=2.0):
        if point.step is not None:
            site, n_states = point.step
            option = next(o for o in planner.plans[site].options if o.n_states == n_states)
            chosen[site] = option.scored.machine
    return replication.apply_replication(program, list(chosen.items()), profile).program


def record(name: str) -> Dict[str, object]:
    args, inputs = workloads.get_workload(name).seeded_args(SCALE, 0)
    return {
        "original": fingerprint(workloads.get_program(name), args, inputs),
        "replicated": fingerprint(replicated_program(name), args, inputs),
    }


def _load_golden() -> Dict[str, dict]:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workloads.BENCHMARK_NAMES)
def test_interpreter_matches_golden(name):
    assert record(name) == _load_golden()[name]


@pytest.mark.parametrize("name", workloads.BENCHMARK_NAMES)
@pytest.mark.parametrize("tier", ["cold", "hot"])
def test_each_tier_matches_golden(name, tier, force_tier):
    force_tier(tier)
    assert record(name) == _load_golden()[name]


def test_golden_covers_every_benchmark():
    assert sorted(_load_golden()) == sorted(workloads.BENCHMARK_NAMES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_interp_golden.py --write")
    golden = {name: record(name) for name in workloads.BENCHMARK_NAMES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
