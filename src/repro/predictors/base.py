"""Predictor interface and the sequential reference evaluation.

Every strategy in the paper — static, dynamic or semi-static — is
modelled as a :class:`Predictor` that is asked for a prediction before
each trace event and told the outcome after it.  Semi-static predictors
are *fit* from a training profile first; dynamic predictors learn
on-line; static predictors ignore the trace entirely.

:func:`evaluate` replays a trace through ``predict``/``update`` one
event at a time.  It is the parity oracle every numpy kernel is tested
against, and the route :func:`~repro.predictors.evaluate_many` takes
when numpy is unavailable or a custom subclass has no ``step_batch``
kernel.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir import BranchSite
from ..profiling import Trace
from ..profiling.columns import TraceColumns

class Predictor(abc.ABC):
    """A branch-direction predictor evaluated against a trace.

    Every concrete predictor passes its human-readable strategy name
    (used in reports) to ``super().__init__``; ``name`` is always an
    instance attribute fixed at construction time, never a mutated
    class attribute.
    """

    #: True when :meth:`predict` depends only on the site — no run-time
    #: state, no history, no sensitivity to event order.  The evaluation
    #: engine scores such predictors in closed form from per-site taken
    #: counts (O(sites)) instead of replaying the trace (O(events)).
    order_independent: bool = False

    def __init__(self, name: str) -> None:
        self.name = name

    def reset(self) -> None:
        """Clear run-time state before an evaluation pass."""

    @abc.abstractmethod
    def predict(self, site: BranchSite) -> bool:
        """Predict the direction of the next execution of *site*."""

    def update(self, site: BranchSite, taken: bool) -> None:
        """Observe the actual outcome (after :meth:`predict`)."""

    def step_batch(self, columns: TraceColumns) -> Optional[List[int]]:
        """numpy batch kernel: per-site-id misprediction counts.

        *columns* is the trace's columnar view
        (:meth:`~repro.profiling.trace.Trace.columns`);
        :func:`~repro.predictors.evaluate_many` calls this only when
        numpy is active (``columns.np`` is the module).  A family that
        can score itself column-wise returns a list of
        ``columns.n_sites`` misprediction counts — exactly the per-site
        totals the sequential ``predict``/``update`` replay produces.
        The default returns ``None``, which has the engine score the
        predictor with the sequential :func:`evaluate` instead — the
        same route every predictor takes without numpy.

        Kernels are pure functions of the frozen predictor
        configuration and the columns: they must not mutate predictor
        state, and they assume :meth:`reset` semantics (history
        registers start zeroed, counters at their initial value).
        """
        return None


@dataclass
class SiteStats:
    """Per-branch evaluation counters."""

    executions: int = 0
    mispredictions: int = 0

    @property
    def rate(self) -> float:
        return self.mispredictions / self.executions if self.executions else 0.0


@dataclass
class EvaluationResult:
    """Outcome of evaluating one predictor over one trace."""

    predictor: str
    events: int
    mispredictions: int
    per_site: Dict[BranchSite, SiteStats] = field(default_factory=dict)

    @property
    def misprediction_rate(self) -> float:
        """Fraction of dynamic branches mispredicted (0..1)."""
        return self.mispredictions / self.events if self.events else 0.0

    @property
    def accuracy(self) -> float:
        return 1.0 - self.misprediction_rate

    def __str__(self) -> str:
        return (
            f"{self.predictor}: {self.misprediction_rate:.2%} "
            f"({self.mispredictions}/{self.events})"
        )


def evaluate(predictor: Predictor, trace: Trace) -> EvaluationResult:
    """Run *predictor* over *trace* and count mispredictions."""
    predictor.reset()
    sites = trace.sites
    stats: Dict[int, SiteStats] = {}
    mispredictions = 0
    events = 0
    predict = predictor.predict
    update = predictor.update
    for sid, taken in trace.events():
        site = sites[sid]
        guess = predict(site)
        outcome = bool(taken)
        wrong = guess is not outcome
        if wrong:
            mispredictions += 1
        events += 1
        entry = stats.get(sid)
        if entry is None:
            entry = stats[sid] = SiteStats()
        entry.executions += 1
        if wrong:
            entry.mispredictions += 1
        update(site, outcome)
    per_site = {sites[sid]: stat for sid, stat in stats.items()}
    return EvaluationResult(predictor.name, events, mispredictions, per_site)
