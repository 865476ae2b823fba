"""The experiment registry and the shared evaluation driver.

Every CLI target is an :class:`Experiment`: a name, a description and a
runner callable.  Modules register themselves at import time (importing
:mod:`repro.experiments` populates the registry), so the CLI, the docs
and the tests all enumerate one source of truth instead of
hand-maintained dicts.

Experiments execute against a :class:`RunContext` — one frozen value
object carrying every cross-cutting knob (scale, benchmark subset,
worker processes, output format, per-target options) — so adding a
knob never requires threading a new positional parameter through every
runner signature.

The predictor-comparison tables (table1, the two-level zoo, statics,
instper, crossdata, tracelen) also share one driver,
:func:`evaluate_rows`: "for each benchmark, evaluate this predictor set
in one pass" via :func:`repro.predictors.evaluate_many`, instead of six
hand-rolled benchmark × predictor loops that each re-scan the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..predictors import EvaluationResult, Predictor, evaluate_many
from ..profiling import Trace
from .report import Table

#: ``predictors_for(benchmark) -> [(row label, predictor), ...]``
PredictorsFor = Callable[[str], Sequence[Tuple[str, Predictor]]]
#: ``trace_for(benchmark) -> Trace``
TraceFor = Callable[[str], Trace]
#: ``metric(result, benchmark) -> cell value``
Metric = Callable[[EvaluationResult, str], Any]


@dataclass(frozen=True)
class RunContext:
    """Everything one experiment execution needs, in one value object.

    Cross-cutting knobs (worker processes, the output format) travel
    together, and per-target options ride in ``options`` instead of
    forcing every runner signature to grow.
    """

    scale: int = 1
    #: benchmark subset, or None for the full suite
    names: Optional[Tuple[str, ...]] = None
    #: worker processes for artifact generation
    jobs: int = 1
    #: output format the caller will render ("text", "json" or "csv")
    output: str = "text"
    #: per-target options (e.g. ``max_states``, ``csv_dir``)
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.names is not None and not isinstance(self.names, tuple):
            object.__setattr__(self, "names", tuple(self.names))

    @property
    def names_list(self) -> Optional[List[str]]:
        """The benchmark subset in the shape legacy runners expect."""
        return list(self.names) if self.names is not None else None

    def with_options(self, **options: Any) -> "RunContext":
        """A copy with *options* merged over the existing ones."""
        merged = dict(self.options)
        merged.update(options)
        return replace(self, options=merged)


@dataclass(frozen=True)
class Experiment:
    """One registered CLI target.

    ``runner(scale, names, **kwargs)`` returns the experiment's
    :class:`~repro.experiments.report.Table` (or, for multi-table
    targets such as ``figures``, a dict of tables — see ``multi``).
    """

    name: str
    runner: Callable[..., Any]
    description: str = ""
    #: True when the runner returns ``{key: Table}`` instead of one Table.
    multi: bool = False

    def execute(self, ctx: RunContext):
        """Run this experiment against *ctx* and return its raw result."""
        return self.runner(ctx.scale, ctx.names_list, **dict(ctx.options))

    def tables(self, ctx: RunContext) -> List[Table]:
        """Run against *ctx* and normalise the result to a list of tables."""
        result = self.execute(ctx)
        if self.multi:
            return list(result.values())
        return [result]


_REGISTRY: Dict[str, Experiment] = {}


def register(
    name: str,
    runner: Callable[..., Any],
    description: str = "",
    multi: bool = False,
) -> Experiment:
    """Register *runner* as the experiment *name* (idempotent by name)."""
    experiment = Experiment(name, runner, description, multi)
    _REGISTRY[name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def experiment_names() -> List[str]:
    """All registered target names, sorted."""
    return sorted(_REGISTRY)


def all_experiments() -> Dict[str, Experiment]:
    return dict(_REGISTRY)


# -- the shared single-pass driver ---------------------------------------------


def _misprediction_rate(result: EvaluationResult, name: str) -> float:
    return result.misprediction_rate


def evaluate_rows(
    names: Sequence[str],
    predictors_for: PredictorsFor,
    trace_for: TraceFor,
    metric: Metric = _misprediction_rate,
) -> Dict[str, List[Any]]:
    """Evaluate a labelled predictor set per benchmark, in one pass each.

    For every benchmark in *names*, builds the predictor set, scans that
    benchmark's trace **once** for all of them
    (:func:`~repro.predictors.evaluate_many`), and collects
    ``metric(result, benchmark)`` per row label.  Returns
    ``{row label: [value per benchmark, in *names* order]}`` with row
    labels in predictor-set order.
    """
    rows: Dict[str, List[Any]] = {}
    for name in names:
        labelled = list(predictors_for(name))
        results = evaluate_many([p for _, p in labelled], trace_for(name))
        for (label, _), result in zip(labelled, results):
            rows.setdefault(label, []).append(metric(result, name))
    return rows
