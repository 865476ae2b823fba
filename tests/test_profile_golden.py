"""Golden parity: profiling reproduces recorded traces and tables exactly.

``tests/data/profile_golden.json`` holds, for each of the 8 benchmarks
at scales 1 and 2, the digests of everything one instrumented run
produces — the sha256 of the trace's site ids plus packed directions,
of the decompressed ``KBA1`` aux JSON (step count and frame-local path
tables), and of the decompressed ``KBP1`` JSON of ``get_profile`` —
plus the step count.  It also holds the output of
``python -m repro profile examples/prog.ir --args 100`` and the digest
of the profile file it writes.  JSON is hashed after decompression
because zlib builds may compress differently.

Regenerate it only when profiling's output changes on purpose::

    PYTHONPATH=src python tests/test_profile_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import zlib
from array import array
from typing import Dict

import pytest

from repro import tools, workloads
from repro.obs import OBS
from repro.profiling import profile_to_bytes
from repro.workloads import artifacts as artifact_store

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "profile_golden.json")
EXAMPLE = os.path.join(os.path.dirname(HERE), "examples", "prog.ir")

SCALES = (1, 2)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _json_sha256(blob: bytes) -> str:
    """Digest of a 4-byte-magic + zlib JSON envelope's decompressed JSON."""
    return _sha256(zlib.decompress(blob[4:]))


def record(name: str, scale: int) -> Dict[str, object]:
    """The digests of one (benchmark, scale) run's profiling products."""
    run = artifact_store.get_artifacts(name, scale=scale)
    site_ids = array("i", run.trace.site_ids)
    if sys.byteorder == "big":
        site_ids.byteswap()
    return {
        "trace_sha256": _sha256(site_ids.tobytes() + run.trace.directions),
        "aux_sha256": _json_sha256(artifact_store._aux_to_bytes(run)),
        "profile_sha256": _json_sha256(
            profile_to_bytes(workloads.get_profile(name, scale))
        ),
        "steps": run.steps,
    }


def record_cli() -> Dict[str, str]:
    """``repro profile examples/prog.ir --args 100``: stdout and file."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "prog.profile")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = tools.main(["profile", EXAMPLE, "--args", "100", "-o", path])
        assert code == 0
        with open(path, "rb") as stream:
            blob = stream.read()
    return {
        "stdout": stdout.getvalue().replace(path, "<output>"),
        "profile_sha256": _json_sha256(blob),
    }


def record_all() -> Dict[str, object]:
    runs = {
        f"{name}-s{scale}": record(name, scale)
        for name in workloads.BENCHMARK_NAMES
        for scale in SCALES
    }
    return {"runs": runs, "cli_profile": record_cli()}


def _load_golden() -> Dict[str, dict]:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", workloads.BENCHMARK_NAMES)
def test_profiling_matches_golden(name, scale):
    assert record(name, scale) == _load_golden()["runs"][f"{name}-s{scale}"]


def test_cold_and_warm_runs_match_golden(tmp_path, monkeypatch):
    """The collector (cold) and the KBT1/KBA1 disk cache (warm) both
    reproduce the golden."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    OBS.reset(prefix="artifacts.")
    expected = _load_golden()["runs"]["compress-s1"]
    try:
        for _ in ("cold", "warm"):
            artifact_store.clear_memory_cache()
            assert record("compress", 1) == expected
        assert OBS.counter("artifacts.interpreter.runs") == 1
        assert OBS.counter("artifacts.cache.hits") == 1
    finally:
        artifact_store.clear_memory_cache()
        OBS.reset(prefix="artifacts.")


def test_cli_profile_matches_golden():
    assert record_cli() == _load_golden()["cli_profile"]


def test_golden_covers_every_run():
    golden = _load_golden()["runs"]
    assert sorted(golden) == sorted(
        f"{name}-s{scale}" for name in workloads.BENCHMARK_NAMES for scale in SCALES
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_profile_golden.py --write")
    os.environ["REPRO_CACHE_DIR"] = ""  # record from fresh runs, never a stale cache
    golden = record_all()
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
