"""Every example script runs to completion.

Each runs in its own interpreter, with a private artifact cache so the
examples that build benchmark workloads never touch the working tree.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_examples_found():
    assert EXAMPLES, "no example scripts found"


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
