"""Cross-workload transfer matrix: can learned profiles replace
per-program profiling?

One model per workload, trained on that workload's *entire* reference
trace (``split=1.0`` — the holdout here is a different program, not a
suffix), then every model is evaluated on every workload's perturbed-
seed run (the crossdata ``DEFAULT_SEED_OFFSET`` dataset, so even the
diagonal is train-on-A / deploy-on-A-with-different-data).

Matrix semantics: the diagonal reuses the trained per-site weights —
the same program exposes the same sites across runs.  Off-diagonal
cells see entirely foreign sites, so every prediction routes through
the model's shared global-history sub-model: that row measures pure
transfer.  Profile and loop-corr baselines (each self-trained on the
evaluation workload's reference run) anchor what per-program profiling
buys.  One single-pass scan per evaluation workload covers all rows.
"""

from __future__ import annotations

from typing import List, Optional

from ..learn import LearnedConfig, LearnedPredictor, fit
from ..predictors import LoopCorrelationPredictor, ProfilePredictor
from ..profiling.columns import get_numpy
from ..workloads import BENCHMARK_NAMES, get_profile, get_trace
from .crosseval import DEFAULT_SEED_OFFSET
from .registry import evaluate_rows, register
from .report import Table, pct

#: The matrix model: global scope transfers by construction (no
#: per-site state is consulted on foreign sites).
TRANSFER_CONFIG = LearnedConfig(kind="perceptron", scope="global", history_bits=8)


def run(
    scale: int = 1,
    names: Optional[List[str]] = None,
    seed_offset: int = DEFAULT_SEED_OFFSET,
) -> Table:
    names = names or BENCHMARK_NAMES
    table = Table(
        "Transfer matrix: model trained on row's workload, evaluated on "
        "column's perturbed-seed run (misprediction %)",
        list(names),
    )

    get_numpy()
    models = {
        name: LearnedPredictor(
            fit(get_trace(name, scale).columns(), TRANSFER_CONFIG, split=1.0),
            name=f"train:{name}",
        )
        for name in names
    }

    def predictors_for(eval_name: str):
        eval_profile = get_profile(eval_name, scale)
        return [(f"train:{train_name}", models[train_name]) for train_name in names] + [
            ("profile (self-trained)", ProfilePredictor(eval_profile)),
            ("loop-corr (self-trained)", LoopCorrelationPredictor(eval_profile)),
        ]

    rows = evaluate_rows(
        names, predictors_for, lambda name: get_trace(name, scale, seed_offset)
    )
    for label, values in rows.items():
        table.add_row(label, values, [pct(v) for v in values])
    return table


register(
    "transfer",
    run,
    "workload×workload matrix: learned model trained on A, deployed on B",
)
