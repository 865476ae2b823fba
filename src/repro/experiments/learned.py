"""Learned-predictor zoo: trained models vs. the profile-driven suite.

Every model trains on the first half of the reference trace and is
judged — frozen — on the second half, against the semi-static baselines
deployed from a profile of the *same* training prefix.  That makes the
comparison fair: nobody sees the holdout before scoring, and the
holdout is evaluated as a fresh trace (histories restart at the split
boundary) for learned and table strategies alike.
"""

from __future__ import annotations

from typing import List, Optional

from ..learn import DEFAULT_SPLIT, LearnedPredictor, default_learned_configs, fit, holdout_trace, training_cut
from ..predictors import LoopCorrelationPredictor, ProfilePredictor, two_level_4k
from ..profiling import ProfileData
from ..profiling.columns import get_numpy
from ..workloads import BENCHMARK_NAMES, get_trace
from .registry import evaluate_rows, register
from .report import Table, pct


def run(
    scale: int = 1,
    names: Optional[List[str]] = None,
    split: float = DEFAULT_SPLIT,
) -> Table:
    names = names or BENCHMARK_NAMES
    table = Table(
        "Learned predictors vs. profile-driven baselines "
        f"(misprediction % on the held-out {1 - split:.0%} suffix)",
        list(names),
    )

    def predictors_for(name: str):
        trace = get_trace(name, scale)
        cut = training_cut(len(trace), split)
        train_profile = ProfileData.from_trace(trace.truncated(cut))
        get_numpy()
        columns = trace.columns()
        predictors = [
            ("profile", ProfilePredictor(train_profile)),
            ("loop-corr", LoopCorrelationPredictor(train_profile)),
            ("two-level-4k", two_level_4k()),
        ]
        for config in default_learned_configs():
            model = fit(columns, config, split)
            predictors.append((config.name, LearnedPredictor(model)))
        return predictors

    rows = evaluate_rows(
        names, predictors_for, lambda name: holdout_trace(get_trace(name, scale), split)
    )
    for label, values in rows.items():
        table.add_row(label, values, [pct(v) for v in values])
    return table


register(
    "learned-zoo",
    run,
    "trained perceptron/logistic family vs. profile baselines on held-out suffixes",
)
