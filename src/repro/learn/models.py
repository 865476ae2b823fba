"""Learned branch predictors: perceptron and logistic regression.

The paper's semi-static strategies freeze per-pattern *majority votes*
from a profiling run.  The learned family replaces the vote tables with
trained linear models over the same history features — a per-site bias
plus one weight per history bit (Jiménez & Lin's perceptron predictor,
here trained offline and deployed frozen like every semi-static
strategy), or the logistic-regression counterpart trained by SGD.

Three scopes mirror the two-level zoo's naming:

* ``global``  — features are the k most recent outcomes of the whole
  stream (one shared shift register);
* ``peraddr`` — features are the site's own k most recent outcomes;
* ``hybrid``  — both registers concatenated (k global + k local bits).

Every model also carries one *shared*, site-independent sub-model over
the global history, trained on every event.  Sites never seen during
training fall back to it — the mechanism that lets a model trained on
workload A say something useful about workload B's entirely foreign
sites (the ``transfer`` experiment).

Deployment is frozen: a :class:`LearnedPredictor` never updates its
weights at evaluation time, so its guess is a pure function of
``(site, history registers)`` and the whole family batch-evaluates
through the same numpy LUT kernels as the pattern-table strategies
(without numpy, the engine scores it with the sequential reference).
All margin arithmetic — training updates and LUT construction alike —
runs in pure Python in a fixed order, which is what makes the numpy
kernels and the sequential reference byte-identical.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import BranchSite
from ..predictors.base import Predictor
from ..predictors.kernels import bincount_bool, lut_misses

_KINDS = ("perceptron", "logistic")
_SCOPES = ("global", "peraddr", "hybrid")

#: Widest feature vector a config may request: LUT rows are
#: ``2**feature_bits`` entries, so this bounds both memory and the
#: frozen-row build cost.
MAX_FEATURE_BITS = 12

#: Canonical learned predictor names: ``learned-<kind>-<scope>-<k>bit``.
_NAME_RE = re.compile(
    r"^learned-(perceptron|logistic)-(global|peraddr|hybrid)-(\d{1,3})bit$"
)


@dataclass(frozen=True)
class LearnedConfig:
    """Frozen description of one learned predictor variant.

    ``history_bits`` is the per-register width; the ``hybrid`` scope
    concatenates both registers, so its feature vector is twice as wide.
    Training hyper-parameters ride along so a serialised model records
    how it was produced.
    """

    kind: str = "perceptron"
    scope: str = "global"
    history_bits: int = 8
    #: passes over the training prefix
    epochs: int = 1
    #: perceptron margin threshold; ``None`` = the standard
    #: ``floor(1.93 * bits + 14)`` (Jiménez & Lin), per model width
    theta: Optional[int] = None
    #: logistic SGD step size
    learning_rate: float = 0.25
    #: perceptron weights saturate at ±this
    weight_limit: int = 127

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}, got {self.scope!r}")
        if not isinstance(self.history_bits, int) or isinstance(self.history_bits, bool):
            raise ValueError("history_bits must be an integer")
        if self.history_bits < 1:
            raise ValueError("history_bits must be >= 1")
        if self.feature_bits > MAX_FEATURE_BITS:
            raise ValueError(
                f"{self.scope} scope with {self.history_bits} history bits "
                f"needs {self.feature_bits} feature bits; the limit is "
                f"{MAX_FEATURE_BITS}"
            )
        if not isinstance(self.epochs, int) or isinstance(self.epochs, bool):
            raise ValueError("epochs must be an integer")
        if not 1 <= self.epochs <= 8:
            raise ValueError("epochs must be in [1, 8]")
        if self.theta is not None and (
            not isinstance(self.theta, int)
            or isinstance(self.theta, bool)
            or self.theta < 0
        ):
            raise ValueError("theta must be None or a non-negative integer")
        if (
            not isinstance(self.learning_rate, float)
            or not math.isfinite(self.learning_rate)
            or self.learning_rate <= 0
        ):
            raise ValueError("learning_rate must be a positive finite float")
        if (
            not isinstance(self.weight_limit, int)
            or isinstance(self.weight_limit, bool)
            or self.weight_limit < 1
        ):
            raise ValueError("weight_limit must be a positive integer")

    @property
    def feature_bits(self) -> int:
        """Width of a per-site feature vector (pattern index bits)."""
        return self.history_bits * 2 if self.scope == "hybrid" else self.history_bits

    @property
    def name(self) -> str:
        return f"learned-{self.kind}-{self.scope}-{self.history_bits}bit"

    def resolved_theta(self, n_bits: int) -> int:
        """The perceptron update threshold for an *n_bits*-wide model."""
        return self.theta if self.theta is not None else int(1.93 * n_bits + 14)


def parse_learned_name(name: str) -> Optional[LearnedConfig]:
    """``learned-<kind>-<scope>-<k>bit`` → config; ``None`` if the name
    is not in the learned namespace.  A name that *is* in the namespace
    but invalid (history width over the limit) raises ``ValueError`` so
    callers can distinguish "not learned" from "learned but bad"."""
    match = _NAME_RE.match(name)
    if match is None:
        return None
    kind, scope, bits = match.groups()
    return LearnedConfig(kind=kind, scope=scope, history_bits=int(bits))


@dataclass
class ModelWeights:
    """One linear sub-model: a bias plus one weight per feature bit.

    ``weights[j]`` multiplies the ±1 encoding of pattern bit ``j``
    (LSB = most recent outcome).  Integers for the perceptron, floats
    for logistic regression; :func:`margin` runs the same fixed-order
    arithmetic either way.
    """

    bias: float = 0
    weights: List[float] = field(default_factory=list)


def margin(model: ModelWeights, pattern: int) -> float:
    """``bias + Σ w[j]·x[j]`` with ``x[j] = +1`` if pattern bit j is set
    else ``-1`` — the dot product ``predict`` and the LUT build share,
    summed in the order the generated trainers in :mod:`.train` keep,
    so decisions agree bit for bit."""
    total = model.bias
    for weight in model.weights:
        if pattern & 1:
            total += weight
        else:
            total -= weight
        pattern >>= 1
    return total


def guess_row(model: ModelWeights) -> List[int]:
    """The frozen pattern → guess lookup row (``2**len(weights)``
    entries, 1 = predict taken)."""
    return [
        1 if margin(model, pattern) >= 0 else 0
        for pattern in range(1 << len(model.weights))
    ]


@dataclass
class LearnedModel:
    """Trained parameters: per-site models plus the shared fallback.

    ``sites`` maps every site seen in training (first-seen order) to its
    ``feature_bits``-wide model; ``shared`` is the site-independent
    global-history model (``history_bits`` wide) every unseen site uses.
    """

    config: LearnedConfig
    shared: ModelWeights
    sites: Dict[BranchSite, ModelWeights]


class LearnedPredictor(Predictor):
    """A frozen trained model behind the standard predictor contract.

    Evaluation-time state is only the history registers (exactly like
    the pattern-table strategies); the weights never move, so
    ``evaluate``/``evaluate_many``, the QA journeys and the service all
    treat it like any other semi-static predictor.
    """

    def __init__(self, model: LearnedModel, name: Optional[str] = None) -> None:
        super().__init__(name or model.config.name)
        self.model = model
        config = model.config
        self.scope = config.scope
        self.bits = config.history_bits
        self._mask = (1 << config.history_bits) - 1
        self._ghist = 0
        self._lhist: Dict[BranchSite, int] = {}

    def reset(self) -> None:
        self._ghist = 0
        self._lhist = {}

    def _pattern(self, site: BranchSite) -> int:
        if self.scope == "global":
            return self._ghist
        local = self._lhist.get(site, 0)
        if self.scope == "peraddr":
            return local
        return (local << self.bits) | self._ghist

    def predict(self, site: BranchSite) -> bool:
        entry = self.model.sites.get(site)
        if entry is None:
            return margin(self.model.shared, self._ghist) >= 0
        return margin(entry, self._pattern(site)) >= 0

    def update(self, site: BranchSite, taken: bool) -> None:
        bit = 1 if taken else 0
        self._ghist = ((self._ghist << 1) | bit) & self._mask
        if self.scope != "global":
            local = self._lhist.get(site, 0)
            self._lhist[site] = ((local << 1) | bit) & self._mask

    # -- frozen lookup rows ----------------------------------------------------

    def _frozen_rows(
        self, sites: Sequence[BranchSite]
    ) -> Tuple[List[Optional[List[int]]], List[int]]:
        """``(per-site rows, shared row)`` for this site table — the
        pure-Python decisions the numpy LUT bake (:meth:`_cached_luts`,
        which caches the result) gathers, so the kernel agrees with
        ``predict``."""
        site_rows = [
            guess_row(self.model.sites[site]) if site in self.model.sites else None
            for site in sites
        ]
        return site_rows, guess_row(self.model.shared)

    # -- columnar batch kernel -------------------------------------------------

    def step_batch(self, columns) -> List[int]:
        if columns.n_events == 0:
            return [0] * columns.n_sites
        np = columns.np
        bits = self.bits
        if self.scope == "global":
            # Seen and unseen sites index by the same global register,
            # so the shared row bakes straight into the flat LUT and the
            # whole scope is one gather (as in the correlation kernel).
            lut = self._cached_luts(np, columns)[0]
            return lut_misses(np, columns, lut, "global", bits)
        # peraddr/hybrid: score in site-grouped order (one local register
        # per site is a boundary-masked window there), with unseen sites
        # routed to the shared global-history row.
        _, sorted_ids, grouped_dirs, _ = columns.grouped()
        ghist = columns.history("global-grouped", bits)
        pattern = columns.history("local", bits)
        if self.scope == "hybrid":
            # Register columns have no spare high bits: widen first.
            pattern = (pattern.astype(np.int32) << bits) | ghist
        width = self.model.config.feature_bits
        index = (sorted_ids.astype(np.int32) << width) | pattern
        site_lut, shared_lut, seen = self._cached_luts(np, columns)
        guesses = np.where(
            np.take(seen, sorted_ids),
            np.take(site_lut, index),
            np.take(shared_lut, ghist),
        )
        return bincount_bool(np, sorted_ids, guesses != grouped_dirs, columns.n_sites)

    def _cached_luts(self, np, columns):
        """``(flat site LUT, shared LUT, per-sid seen mask)`` as numpy
        arrays, built from the pure-Python frozen rows (so the decisions
        are ``predict``'s, merely gathered vectorially)."""
        key = ("lut", tuple(columns.sites))
        cache = self.__dict__.setdefault("_row_cache", {})
        entry = cache.get(key)
        if entry is None:
            rows, shared_row = self._frozen_rows(columns.sites)
            width = 1 << self.model.config.feature_bits
            flat = np.zeros(len(rows) * width, dtype=np.uint8)
            seen = np.zeros(len(rows), dtype=bool)
            for sid, row in enumerate(rows):
                if row is None:
                    if self.scope == "global":
                        flat[sid * width : (sid + 1) * width] = shared_row
                    continue
                seen[sid] = True
                flat[sid * width : (sid + 1) * width] = row
            entry = (flat, np.array(shared_row, dtype=np.uint8), seen)
            cache[key] = entry
        return entry


def default_learned_configs() -> Tuple[LearnedConfig, ...]:
    """The learned zoo rows: both kinds, every scope represented."""
    return (
        LearnedConfig(kind="perceptron", scope="global", history_bits=8),
        LearnedConfig(kind="perceptron", scope="peraddr", history_bits=8),
        LearnedConfig(kind="perceptron", scope="hybrid", history_bits=4),
        LearnedConfig(kind="logistic", scope="global", history_bits=8),
    )
