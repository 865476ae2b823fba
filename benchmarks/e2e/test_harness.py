"""Smoke tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Each
workload runs twice in ``--smoke`` mode (scale 1, one round or two 1 s
windows, one set-up): once untraced, once traced.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import batch
import fleet
import layers
import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = {**batch.WORKLOADS, **fleet.WORKLOADS}
EXACT = ("mispredict_pct", "size_factor")


def invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def leftovers() -> set:
    """Entries in the run's scratch directory, and live processes started
    from it (a fleet's command line names its ready file there)."""
    scratch = ROOT / ".e2e"
    found = {path.name for path in scratch.iterdir()} if scratch.is_dir() else set()
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if str(scratch).encode() in cmdline.read_bytes():
                found.add(cmdline.parent.name)
        except OSError:
            continue
    return found


def smoke(workload: str, trace: int, output: Path) -> dict:
    before = leftovers()
    done = invoke(
        ROOT, "--workload", workload, "--seed", "7", "--smoke",
        "--trace", str(trace), "--output", str(output), "--trace-dir", str(output.parent),
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert leftovers() <= before, "the run left files or processes behind"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_declaration_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == list(
        measure.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_untraced_then_traced(workload, tmp_path):
    untraced = smoke(workload, 0, tmp_path / "untraced.json")
    metrics = untraced["metrics"]
    assert [name for name, *_ in measure.END_TO_END] == list(metrics)
    for name, unit, _ in measure.END_TO_END:
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit
        assert math.isfinite(value) and value > 0, (name, value)

    traced = smoke(workload, 1, tmp_path / "traced.json")
    per_layer = traced["metrics"]
    assert [name for name, *_ in layers.PER_LAYER] == list(per_layer)
    for name, unit, _ in layers.PER_LAYER:
        assert per_layer[name]["unit"] == unit
        assert math.isfinite(per_layer[name]["value"]), name
    assert per_layer["unattributed.share"]["value"] <= layers.MAX_UNATTRIBUTED_SHARE
    assert (tmp_path / "spans.json").stat().st_size > 0
    assert (tmp_path / "layers.txt").read_text().startswith("span")
    if workload == "analyze-warm":
        assert per_layer["interp.runs"]["value"] == 0

    # The exact metrics repeat bit for bit across the two runs.
    quality = json.loads((tmp_path / "traced.json").read_text())["quality"]
    for name in EXACT:
        assert quality[name] == metrics[name]["value"], name


def test_refuses_to_run_without_the_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files, the command fails fast and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke(tmp_path, "--workload", "replicate-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
