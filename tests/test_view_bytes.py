"""Memory of the columnar trace view: bytes per event and the budget.

A :class:`~repro.profiling.columns.TraceColumns` view keeps every column
the kernels derive from its trace.  Each is stored in the smallest dtype
that holds it exactly, and the views of all traces share one byte
budget, ``repro.profiling.trace.VIEW_BYTES``.
"""

import sys
import threading

import pytest

from repro import predictors
from repro.ir import BranchSite
from repro.profiling import ProfileData, Trace
from repro.profiling import trace as trace_module
from repro.profiling.columns import get_numpy

#: ``nbytes() / n_events`` of the views after one ``analyze-warm`` round
#: (scale 4, all eight workloads): 42.9, down from 96.5 when indices
#: were int64 and registers int32.
BYTES_PER_EVENT = 43.0


def synthetic_trace(rounds: int = 400, name: str = "main") -> Trace:
    """Nested loops with a parity branch, an inner loop-exit branch and
    a rarely taken one: about 15k events over four sites."""
    loop, parity, inner, rare = (
        BranchSite(name, block) for block in ("loop", "parity", "inner", "rare")
    )
    events = []
    for outer in range(rounds):
        for step in range(outer % 7 + 3):
            events.append((parity, step % 2 == 0))
            events.extend((inner, k < 2) for k in range(3))
            events.append((rare, (outer * 31 + step) % 17 == 0))
            events.append((loop, True))
        events.append((loop, False))
    return Trace.from_events(events)


def table1_predictors(profile):
    return [
        predictors.LastDirection(),
        predictors.SaturatingCounter(2),
        predictors.two_level_4k(),
        predictors.ProfilePredictor(profile),
        predictors.CorrelationPredictor(profile, 1),
        predictors.LoopPredictor(profile, 1),
        predictors.LoopPredictor(profile, 9),
        predictors.LoopCorrelationPredictor(profile),
    ]


def score(trace):
    profile = ProfileData.from_trace(trace)
    return [
        (result.mispredictions, result.per_site)
        for result in predictors.evaluate_many(table1_predictors(profile), trace)
    ]


def test_table1_view_bytes_per_event():
    trace = synthetic_trace()
    score(trace)
    columns = trace.columns()
    assert columns.nbytes() / columns.n_events <= BYTES_PER_EVENT


def test_cached_columns_use_exact_dtypes():
    np = get_numpy()
    if np is None:
        pytest.skip("the no-numpy view caches no derived columns")
    trace = synthetic_trace(rounds=40)
    score(trace)
    columns = trace.columns()
    order, sorted_ids, _, _ = columns.grouped()
    assert order.dtype == np.int32
    assert sorted_ids.dtype == np.uint8
    assert columns.grouped_starts().dtype == np.int32
    run_sites, run_starts, run_lengths = columns.runs()
    assert (run_sites.dtype, run_starts.dtype, run_lengths.dtype) == (
        np.uint8,
        np.int32,
        np.int32,
    )
    for bits, dtype in ((1, np.uint8), (8, np.uint8), (9, np.uint16), (17, np.uint32)):
        assert columns.history("global", bits).dtype == dtype
        assert columns.history("local", bits).dtype == dtype


def test_view_budget_drops_the_least_recently_viewed(monkeypatch):
    first, second = synthetic_trace(name="f"), synthetic_trace(name="g")
    expected = score(first)
    first_view = first.columns()
    monkeypatch.setattr(trace_module, "VIEW_BYTES", first_view.nbytes() + 1)
    second_view = second.columns()
    score(second)
    # Viewing the second trace put the total over the budget: the older
    # view went, the one just handed out stayed.
    assert first._columns is None
    assert second._columns is second_view
    # The dropped view rebuilds on demand and scores identically.
    assert score(first) == expected
    assert first._columns is not None and first._columns is not first_view
    assert second._columns is None


def test_concurrent_viewers_always_get_a_whole_view(monkeypatch):
    """Threads viewing traces under a budget that fits one view at a
    time: every call returns a view of the trace's current events, and
    the counts read off it never change, however views are dropped."""
    traces = [synthetic_trace(rounds=60, name=f"t{index}") for index in range(3)]
    expected = [trace.columns().site_taken() for trace in traces]
    monkeypatch.setattr(trace_module, "VIEW_BYTES", 1)
    failures = []

    def viewer(offset):
        try:
            for step in range(150):
                index = (offset + step) % len(traces)
                view = traces[index].columns()
                assert view.n_events == len(traces[index])
                assert view.site_taken() == expected[index]
        except Exception as error:  # reported by the main thread
            failures.append(error)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=viewer, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # Over a one-byte budget, only the most recently viewed trace keeps
    # its view.
    assert sum(trace._columns is not None for trace in traces) == 1
