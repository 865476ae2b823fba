"""Golden parity: replication reproduces recorded realisations exactly.

``tests/data/replication_golden.json`` holds, for each of the 8
benchmarks at scale 1, every prefix of the ``ReplicationPlanner(
max_states=6)`` trade-off curve up to ``max_size_factor=9.5`` — the
realisations the ``costfn`` experiment and the ``replicate-sweep``
benchmark make.  Per prefix it records the sha256 of the rendered
replicated program, the program sizes before and after, and every loop
and tail result's sizes plus the sha256 of its removed blocks (in
order) and of its surviving copies.  A second check runs every prefix
and folds each copy's branch counts onto its original block.

Regenerate it only when replication's output changes on purpose::

    PYTHONPATH=src python tests/test_repl_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

import pytest

from repro import replication, workloads
from repro.ir.printer import format_program

from conftest import run_folding_copies

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "replication_golden.json"
)

SCALE = 1
MAX_STATES = 6
MAX_SIZE_FACTOR = 9.5


def curve_selections(planner, points):
    """The curve's upgrades as ``(site, machine)`` picks, in the order
    the sites were first upgraded (a later upgrade replaces the site's
    machine), exactly as ``costfn`` realises a prefix."""
    chosen = {}
    for point in points:
        if point.step is None:
            continue
        site, n_states = point.step
        option = next(o for o in planner.plans[site].options if o.n_states == n_states)
        chosen[site] = option.scored.machine
    return list(chosen.items())


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _loop_record(result) -> Dict[str, object]:
    return {
        "site": list(result.site),
        "removed_sha256": _sha(result.removed),
        "copies_sha256": _sha(
            [[label, sorted(by_state.items())] for label, by_state in result.copies.items()]
        ),
        "size_before": result.size_before,
        "size_after": result.size_after,
    }


def _tail_record(result) -> Dict[str, object]:
    return {
        "site": list(result.site),
        "removed_sha256": _sha(result.removed),
        "copies_sha256": _sha(
            [[pattern, route, label] for (pattern, route), label in result.copies.items()]
        ),
        "size_before": result.size_before,
        "size_after": result.size_after,
    }


def realisations(name: str):
    """The replication report of every curve prefix of benchmark *name*."""
    program = workloads.get_program(name)
    profile = workloads.get_profile(name, SCALE, 0)
    planner = replication.ReplicationPlanner(program, profile, max_states=MAX_STATES)
    points = replication.tradeoff_curve(planner, max_size_factor=MAX_SIZE_FACTOR)
    for end in range(len(points)):
        yield replication.apply_replication(
            program, curve_selections(planner, points[: end + 1]), profile
        )


def record(name: str) -> List[Dict[str, object]]:
    """One entry per curve prefix of benchmark *name*."""
    prefixes = []
    for report in realisations(name):
        rendered = format_program(report.program).encode()
        prefixes.append(
            {
                "program_sha256": hashlib.sha256(rendered).hexdigest(),
                "size_before": report.size_before,
                "size_after": report.size_after,
                "loop_results": [_loop_record(r) for r in report.loop_results],
                "tail_results": [_tail_record(r) for r in report.tail_results],
            }
        )
    return prefixes


def _load_golden() -> Dict[str, list]:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workloads.BENCHMARK_NAMES)
def test_replication_matches_golden(name):
    assert record(name) == _load_golden()[name]


@pytest.mark.parametrize("name", workloads.BENCHMARK_NAMES)
def test_every_prefix_folds_onto_the_original_branches(name):
    """Folding each copy onto its origin gives every original branch, at
    every prefix, exactly the executions and taken count it has in the
    unreplicated run, and the run's behaviour is unchanged."""
    program = workloads.get_program(name)
    args, input_values = workloads.get_workload(name).default_args(SCALE)
    reference, expected = run_folding_copies(program.copy(), args, input_values)
    for report in realisations(name):
        result, counts = run_folding_copies(report.program, args, input_values)
        assert (result.value, result.output) == (reference.value, reference.output)
        assert counts == expected


def test_golden_covers_every_prefix():
    golden = _load_golden()
    assert sorted(golden) == sorted(workloads.BENCHMARK_NAMES)
    assert sum(len(prefixes) for prefixes in golden.values()) == 46


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_repl_golden.py --write")
    golden = {name: record(name) for name in workloads.BENCHMARK_NAMES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
