"""Training-length sensitivity: how much profiling is enough?

Semi-static prediction is trained offline; this sweep trains the
loop–correlation strategy on growing prefixes of the trace and
evaluates on the full trace, showing how quickly the pattern tables
converge.  The punchline backs the paper's methodology: a few thousand
events per branch already capture the structure that replication
exploits.

All six prefix-trained predictors of one benchmark are evaluated in a
single scan of its full trace.
"""

from __future__ import annotations

from typing import List, Optional

from ..predictors import LoopCorrelationPredictor
from ..profiling import ProfileData
from ..workloads import BENCHMARK_NAMES, get_trace
from .registry import evaluate_rows, register
from .report import Table, pct

FRACTIONS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


def _label(fraction: float) -> str:
    return f"{int(100 * fraction)}% prefix"


def run(scale: int = 1, names: Optional[List[str]] = None) -> Table:
    names = names or BENCHMARK_NAMES
    table = Table(
        "Training-length sensitivity: loop-correlation misprediction (%) "
        "on the full trace, trained on a prefix",
        list(names),
    )

    def predictors_for(name: str):
        trace = get_trace(name, scale)
        labelled = []
        for fraction in FRACTIONS:
            prefix = trace[: max(1, int(len(trace) * fraction))]
            profile = ProfileData.from_trace(prefix)
            labelled.append((_label(fraction), LoopCorrelationPredictor(profile)))
        return labelled

    rows = evaluate_rows(
        names, predictors_for, lambda name: get_trace(name, scale)
    )
    for fraction in FRACTIONS:
        label = _label(fraction)
        table.add_row(label, rows[label], [pct(v) for v in rows[label]])
    return table


register(
    "tracelen",
    run,
    "loop-correlation accuracy vs training-trace prefix length",
)
