"""Single-pass multi-predictor evaluation engine.

Every table in the paper compares many strategies over the *same*
trace.  :func:`repro.predictors.base.evaluate` replays the full trace
once per predictor; :func:`evaluate_many` scores each predictor by the
cheapest route that yields identical results:

* **closed form** — order-independent predictors (static heuristics,
  :class:`~repro.predictors.semistatic.ProfilePredictor`) are scored
  from per-site taken counts alone, O(sites) instead of O(events);
* **numpy kernels** — every built-in online family implements
  :meth:`Predictor.step_batch` as vectorized numpy passes over the
  trace's columnar view (:meth:`~repro.profiling.trace.Trace.columns`),
  byte-identical to the sequential replay;
* **else the sequential reference** — without numpy, and where
  ``step_batch`` returns ``None``, the predictor is scored by
  :func:`~repro.predictors.base.evaluate` itself, the same
  ``predict``/``update`` replay the parity suites hold every kernel to.

Only an online predictor makes the engine load numpy, so a call that
scores in closed form alone never imports it.  Per-site execution and
taken counts are predictor-independent and come from the columnar
view, shared by every result.

The engine reports process-wide counters (``engine.*``: events,
wall-clock, predictors per route) and an ``engine.evaluate_many`` span
per call to the :mod:`repro.obs` observer, so the CLI's ``--timings``
and ``--trace-out`` can show events/sec per stage.  ``engine.events``
counts only events that did online work (batch kernels or a
sequential replay); calls that were satisfied entirely in closed form
book their events under ``engine.closed_form_events`` instead, so the
``--timings`` events/sec rate is never inflated by O(sites) calls.
The per-event work itself carries **no** instrumentation — counters
are bumped once per call.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ..ir import BranchSite
from ..obs import OBS
from ..profiling import Trace
from ..profiling.columns import get_numpy
from .base import EvaluationResult, Predictor, SiteStats, evaluate


def evaluate_many(
    predictors: Sequence[Predictor], trace: Trace
) -> List[EvaluationResult]:
    """Evaluate all *predictors* over *trace*, each by its fastest path.

    Returns one :class:`EvaluationResult` per predictor, in input
    order, each identical to ``evaluate(predictor, trace)``.
    """
    predictors = list(predictors)
    started = perf_counter()
    with OBS.span("engine.evaluate_many", predictors=len(predictors)) as span:
        sites = trace.sites
        if not all(predictor.order_independent for predictor in predictors):
            get_numpy()
        columns = trace.columns()

        # Shared per-site bookkeeping from the columnar view.
        executions = columns.site_executions()
        taken = columns.site_taken()

        events = len(trace)
        results: List[EvaluationResult] = [None] * len(predictors)  # type: ignore[list-item]
        site_rows = [
            (sid, sites[sid], count) for sid, count in executions.items()
        ]

        def finish(index: int, name: str, wrong: Sequence[int]) -> None:
            per_site: Dict[BranchSite, SiteStats] = {
                site: SiteStats(count, wrong[sid]) for sid, site, count in site_rows
            }
            results[index] = EvaluationResult(name, events, sum(wrong), per_site)

        # Route each predictor: closed form (below), numpy kernel, or
        # the sequential reference replay.
        batched = 0
        sequential = 0
        for index, predictor in enumerate(predictors):
            if predictor.order_independent:
                continue
            predictor.reset()
            counts: Optional[List[int]] = (
                predictor.step_batch(columns) if columns.np else None
            )
            if counts is not None:
                batched += 1
                finish(index, predictor.name, counts)
            else:
                sequential += 1
                results[index] = evaluate(predictor, trace)

        # Closed-form fast path: O(sites) per order-independent predictor.
        closed_form = 0
        for index, predictor in enumerate(predictors):
            if predictor.order_independent:
                closed_form += 1
                predictor.reset()
                predict = predictor.predict
                per_site = {}
                mispredictions = 0
                for sid, count in executions.items():
                    taken_here = taken[sid]
                    wrong_here = (
                        count - taken_here if predict(sites[sid]) else taken_here
                    )
                    mispredictions += wrong_here
                    per_site[sites[sid]] = SiteStats(count, wrong_here)
                results[index] = EvaluationResult(
                    predictor.name, events, mispredictions, per_site
                )

        span.set(
            events=events,
            batched=batched,
            sequential=sequential,
            closed_form=closed_form,
        )

    elapsed = perf_counter() - started
    scanned = batched or sequential
    # events/sec accounting: only events that did online work (batch
    # kernels or a sequential replay) count as scanned; a call satisfied
    # entirely in closed form books them separately so it cannot
    # inflate the ``--timings`` rate.
    OBS.add("engine.events", events if scanned else 0)
    OBS.add("engine.closed_form_events", 0 if scanned else events)
    OBS.add("engine.batch_predictors", batched)
    OBS.add("engine.closed_form_predictors", closed_form)
    OBS.add("engine.seconds", elapsed)
    # Distinct name from the engine.seconds total: a histogram family's
    # _sum/_count samples must not collide with the plain counter.
    OBS.observe("engine.scan_seconds", elapsed)
    return results
