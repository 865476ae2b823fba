"""Replicated programs must not depend on hash randomisation.

``Loop.body`` is a set; if the loop transform iterated it directly, the
block layout of the replicated program (and therefore every layout- and
i-cache-sensitive measurement) would vary from process to process with
``PYTHONHASHSEED``.  This drives the pipeline in subprocesses under
different hash seeds and requires identical rendered programs.
"""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = r"""
import sys
from repro.ir import parse_program
from repro.ir.printer import format_program
from repro.profiling import ProfileData, trace_program
from repro.replication import ReplicationPlanner, apply_replication

program = parse_program('''
func main(n) {
entry:
  i = move 0
  a = move 0
loop:
  br lt i, n ? b1 : done
b1:
  p = mod i, 2
  br eq p, 0 ? b2 : b3
b2:
  a = add a, 1
  jump b4
b3:
  a = add a, 2
  jump b4
b4:
  q = mod i, 3
  br eq q, 0 ? b5 : b6
b5:
  a = add a, 3
  jump b7
b6:
  a = add a, 4
  jump b7
b7:
  i = add i, 1
  jump loop
done:
  ret a
}
''')
trace, _ = trace_program(program, [300])
profile = ProfileData.from_trace(trace)
planner = ReplicationPlanner(program, profile, max_states=4)
selections = [
    (plan.site, plan.best_option(4).scored.machine)
    for plan in planner.improvable_plans()
]
report = apply_replication(program, selections, profile)
sys.stdout.write(format_program(report.program))
"""


@pytest.mark.parametrize("seeds", [("1", "2", "3", "4")])
def test_replicated_layout_is_hashseed_independent(seeds):
    outputs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [sys.executable, "-c", SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0]  # the pipeline really produced a program
    assert all(output == outputs[0] for output in outputs)


SWEEP_SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from test_repl_golden import record
sys.stdout.write(json.dumps(record("c-compiler")))
"""


def test_sweep_prefixes_are_hashseed_independent():
    """c-compiler's whole trade-off sweep (14 prefixes, up to x72 real
    growth) renders the same programs and the same per-transform results
    under different hash seeds — and the recorded golden ones."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    fingerprints = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [sys.executable, "-c", SWEEP_SCRIPT, tests_dir],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        fingerprints.append(json.loads(result.stdout))
    with open(os.path.join(tests_dir, "data", "replication_golden.json")) as handle:
        golden = json.load(handle)["c-compiler"]
    assert len(fingerprints[0]) == 14
    assert fingerprints[0] == fingerprints[1] == golden
