"""The gate scripts under benchmarks/: CI runs every one, and the eval
gate refuses arguments under which it would measure nothing."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
CI_YML = os.path.join(ROOT, ".github", "workflows", "ci.yml")
EVAL_SMOKE = os.path.join(ROOT, "benchmarks", "bench_eval_smoke.py")

RUN_KEY = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")


def ci_run_commands(text: str) -> str:
    """Every ``run:`` command of a workflow file, joined: a one-line
    value, or the more-indented lines under a ``run: |`` block."""
    commands = []
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = RUN_KEY.match(line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value not in ("|", ">"):
            commands.append(value)
            continue
        for body in lines[index + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            commands.append(body)
    return "\n".join(commands)


def test_every_bench_script_runs_in_ci():
    with open(CI_YML) as stream:
        commands = ci_run_commands(stream.read())
    scripts = sorted(
        os.path.basename(path)
        for path in glob.glob(os.path.join(ROOT, "benchmarks", "*.py"))
    )
    assert scripts
    for script in scripts:
        assert f"benchmarks/{script}" in commands, f"{script} runs in no CI step"


@pytest.mark.parametrize("argv", [["--repeats", "0"], ["--names", ","]])
def test_eval_gate_rejects_arguments_that_measure_nothing(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    output = tmp_path / "BENCH_eval.json"
    result = subprocess.run(
        [sys.executable, EVAL_SMOKE, "--output", str(output), *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2, result.stderr
    assert argv[0] in result.stderr
    assert not output.exists()
