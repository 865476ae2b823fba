"""Trace data structure tests."""

from repro.ir import BranchSite
from repro.profiling import ProfileData, Trace


def sample_trace() -> Trace:
    trace = Trace()
    a = BranchSite("f", "a")
    b = BranchSite("f", "b")
    trace.record(a, True)
    trace.record(b, False)
    trace.record(a, True)
    trace.record(a, False)
    return trace


def test_length():
    assert len(sample_trace()) == 4


def test_site_interning_is_stable():
    trace = sample_trace()
    assert trace.site_id(BranchSite("f", "a")) == 0
    assert trace.site_id(BranchSite("f", "b")) == 1
    assert len(trace.sites) == 2


def test_events_stream():
    assert list(sample_trace().events()) == [(0, 1), (1, 0), (0, 1), (0, 0)]


def test_iteration_yields_sites():
    events = list(sample_trace())
    assert events[0] == (BranchSite("f", "a"), True)
    assert events[3] == (BranchSite("f", "a"), False)


def test_taken_counts():
    counts = ProfileData.from_trace(sample_trace()).totals
    assert counts[BranchSite("f", "a")] == (1, 2)
    assert counts[BranchSite("f", "b")] == (1, 0)


def test_truncated():
    trace = sample_trace()
    short = trace.truncated(2)
    assert len(short) == 2
    assert list(short.events()) == [(0, 1), (1, 0)]
    assert short.sites == trace.sites


def test_from_events_roundtrip():
    trace = sample_trace()
    rebuilt = Trace.from_events(iter(trace))
    assert list(rebuilt.events()) == list(trace.events())


