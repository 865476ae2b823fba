"""Learned branch predictors: trained models behind the standard
predictor contract.

Where every other strategy in this repo reads its state from a profile,
this subsystem *produces* state: :func:`fit` trains a perceptron or
logistic-regression model over history bits on a trace prefix, and the
frozen result deploys as a :class:`LearnedPredictor` that evaluates,
batches, serialises and serves exactly like the pattern-table zoo.
"""

from .models import (
    LearnedConfig,
    LearnedModel,
    LearnedPredictor,
    ModelWeights,
    default_learned_configs,
    parse_learned_name,
)
from .serialize import (
    FORMAT_VERSION,
    ModelFormatError,
    model_from_json,
    model_to_json,
)
from .train import DEFAULT_SPLIT, fit, training_cut

__all__ = [
    "DEFAULT_SPLIT",
    "FORMAT_VERSION",
    "LearnedConfig",
    "LearnedModel",
    "LearnedPredictor",
    "ModelFormatError",
    "ModelWeights",
    "default_learned_configs",
    "fit",
    "model_from_json",
    "model_to_json",
    "parse_learned_name",
    "training_cut",
]
