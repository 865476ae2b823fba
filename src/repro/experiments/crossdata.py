"""Cross-dataset sensitivity (the paper's "Further Work", after
Fisher & Freudenberger [FF92]).

Semi-static prediction is trained on one run and deployed on another.
This experiment trains on the reference seed and evaluates on a run
with a different seed, for both plain profile prediction and the
loop–correlation strategy.  The paper conjectures that "code replicated
programs are more sensitive to different data sets than the original
program" — the ratio rows let us check that.

The table-driven strategies are scored by the shared single-pass
driver: one scan of the same-data trace and one of the cross-data trace
per benchmark cover both strategies (profile in closed form).
"""

from __future__ import annotations

from typing import List, Optional

from ..predictors import LoopCorrelationPredictor, ProfilePredictor
from ..replication import ReplicationPlanner, apply_replication, measure_annotated
from ..workloads import BENCHMARK_NAMES, get_profile, get_program, get_trace, get_workload
from .crosseval import DEFAULT_SEED_OFFSET
from .registry import evaluate_rows, register
from .report import Table, pct

__all__ = ["DEFAULT_SEED_OFFSET", "run"]


def run(
    scale: int = 1,
    names: Optional[List[str]] = None,
    seed_offset: int = DEFAULT_SEED_OFFSET,
) -> Table:
    names = names or BENCHMARK_NAMES
    table = Table(
        "Cross-dataset experiment: trained on run A, evaluated on run B "
        "(misprediction % / ratio to same-data)",
        list(names),
    )

    def predictors_for(name: str):
        train_profile = get_profile(name, scale)
        return [
            ("profile", ProfilePredictor(train_profile)),
            ("loop-corr", LoopCorrelationPredictor(train_profile)),
        ]

    same_rows = evaluate_rows(
        names, predictors_for, lambda name: get_trace(name, scale)
    )
    cross_rows = evaluate_rows(
        names, predictors_for, lambda name: get_trace(name, scale, seed_offset)
    )

    rows = {
        "profile (same data)": same_rows["profile"],
        "profile (cross data)": cross_rows["profile"],
        "loop-corr (same data)": same_rows["loop-corr"],
        "loop-corr (cross data)": cross_rows["loop-corr"],
        "replicated (same data)": [],
        "replicated (cross data)": [],
    }
    for name in names:
        # End to end: the REPLICATED program, trained on run A, measured
        # on run A's and run B's inputs — the paper's actual conjecture.
        train_profile = get_profile(name, scale)
        program = get_program(name)
        workload = get_workload(name)
        args_same, input_values = workload.seeded_args(scale)
        args_other, _ = workload.seeded_args(scale, seed_offset)
        planner = ReplicationPlanner(program, train_profile, max_states=4)
        selections = [
            (plan.site, option.scored.machine) for plan, option in planner.picks()
        ]
        replicated = apply_replication(program, selections, train_profile).program
        rows["replicated (same data)"].append(
            measure_annotated(replicated, args_same, input_values).misprediction_rate
        )
        rows["replicated (cross data)"].append(
            measure_annotated(replicated, args_other, input_values).misprediction_rate
        )
    for label, values in rows.items():
        table.add_row(label, values, [pct(v) for v in values])
    # Degradation ratios (cross / same); > 1 means sensitivity to data.
    for strategy in ("profile", "loop-corr", "replicated"):
        same = table.data[f"{strategy} (same data)"]
        cross = table.data[f"{strategy} (cross data)"]
        ratios = [c / s if s else float("inf") for s, c in zip(same, cross)]
        table.add_row(
            f"{strategy} degradation",
            ratios,
            [f"{r:.2f}x" if r != float("inf") else "inf" for r in ratios],
        )
    return table


register(
    "crossdata",
    run,
    "train on run A, evaluate on run B: dataset-shift sensitivity",
)
