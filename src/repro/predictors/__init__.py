"""Branch prediction strategies and the evaluation engine."""

from .base import EvaluationResult, Predictor, SiteStats, evaluate
from .dynamic import LastDirection, SaturatingCounter
from .engine import evaluate_many
from .semistatic import (
    CorrelationPredictor,
    LoopCorrelationPredictor,
    LoopPredictor,
    ProfilePredictor,
    semistatic_suite,
)
from .static import (
    AlwaysNotTaken,
    AlwaysTaken,
    FixedMapPredictor,
    backward_taken,
    ball_larus,
    opcode_heuristic,
    static_predictors,
)
from .twolevel import (
    TwoLevelConfig,
    TwoLevelPredictor,
    all_yeh_patt_variants,
    two_level_4k,
)

__all__ = [
    "AlwaysNotTaken",
    "AlwaysTaken",
    "CorrelationPredictor",
    "EvaluationResult",
    "FixedMapPredictor",
    "LastDirection",
    "LoopCorrelationPredictor",
    "LoopPredictor",
    "Predictor",
    "ProfilePredictor",
    "SaturatingCounter",
    "SiteStats",
    "TwoLevelConfig",
    "TwoLevelPredictor",
    "all_yeh_patt_variants",
    "backward_taken",
    "ball_larus",
    "evaluate",
    "evaluate_many",
    "opcode_heuristic",
    "semistatic_suite",
    "static_predictors",
    "two_level_4k",
]
