"""Trace data structure tests."""

import random
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.ir import BranchSite
from repro.profiling import ProfileData, Trace, trace_from_bytes, trace_to_bytes

from conftest import recorded_trace

A = BranchSite("f", "a")
B = BranchSite("f", "b")


def sample_trace() -> Trace:
    return Trace.from_events([(A, True), (B, False), (A, True), (A, False)])


def test_length():
    assert len(sample_trace()) == 4


def test_site_interning_is_stable():
    trace = sample_trace()
    assert trace.sites == [A, B]
    assert trace.site_ids.tolist() == [0, 1, 0, 0]


def test_events_stream():
    assert list(sample_trace().events()) == [(0, 1), (1, 0), (0, 1), (0, 0)]


def test_iteration_yields_sites():
    events = list(sample_trace())
    assert events[0] == (A, True)
    assert events[3] == (A, False)


def test_taken_counts():
    counts = ProfileData.from_trace(sample_trace()).totals
    assert counts[A] == (1, 2)
    assert counts[B] == (1, 0)


def test_truncated():
    trace = sample_trace()
    short = trace[:2]
    assert len(short) == 2
    assert list(short.events()) == [(0, 1), (1, 0)]
    assert short.sites == trace.sites
    suffix = trace[2:]
    assert suffix.sites == [A]
    assert list(suffix.events()) == [(0, 1), (0, 0)]


def test_from_events_roundtrip():
    trace = sample_trace()
    rebuilt = Trace.from_events(iter(trace))
    assert list(rebuilt.events()) == list(trace.events())


def test_constructor_keeps_whole_bytes_and_zeroes_the_spare_bits():
    trace = Trace([A], array("i", [0, 0, 0]), b"\xff\xff", 3)
    assert trace.directions == b"\x07"
    assert [taken for _, taken in trace] == [True, True, True]


def test_constructor_rejects_columns_that_disagree():
    with pytest.raises(ValueError):
        Trace([A], array("i", [0, 0]), b"\x00", 3)
    with pytest.raises(ValueError):
        Trace([A], array("i", [0] * 9), b"\x00", 9)


def test_a_slice_takes_every_event_between_its_bounds():
    trace = sample_trace()
    with pytest.raises(TypeError):
        trace[0]
    with pytest.raises(ValueError):
        trace[::2]
    assert len(trace[3:1]) == 0
    assert list(trace[-3:-1]) == [(B, False), (A, True)]


def _as_tuple(trace):
    return trace.sites, trace.site_ids.tolist(), trace.directions, len(trace)


@given(
    st.sampled_from([1, 127, 128, 300]),
    st.lists(st.tuples(st.integers(0, 299), st.booleans()), max_size=600),
    st.integers(0, 2**32 - 1),
    st.data(),
)
@example(1, [], 0, None)
@example(128, [(127, True), (0, False), (127, True)], 0, None)
@settings(deadline=None)
def test_bulk_builders_equal_the_event_recorder(site_count, pairs, seed, data):
    """``Trace.from_events``, the constructor, a ``KBT1`` round trip and
    every slice equal the per-event recorder: 0 events, 1, 127, 128 and
    300 sites (one- and two-byte site ids), cuts at 0, 1, n - 1, n and
    drawn ones.  A slice re-interns its sites in first-event order, even
    from a parent whose site table is in some other order."""
    events = [(BranchSite("f", f"b{index % site_count}"), taken) for index, taken in pairs]
    expected = recorded_trace(events)
    built = Trace.from_events(events)
    assert _as_tuple(built) == _as_tuple(expected)
    direct = Trace(expected.sites, expected.site_ids, expected.directions + b"\xff", len(events))
    assert _as_tuple(direct) == _as_tuple(expected)
    assert _as_tuple(trace_from_bytes(trace_to_bytes(built))) == _as_tuple(expected)

    order = [BranchSite("f", f"b{index}") for index in range(site_count)]
    random.Random(seed).shuffle(order)
    shuffled = recorded_trace(events, order)
    n = len(events)
    cuts = {0, 1, max(n - 1, 0), n}
    if data is not None:
        cuts.add(data.draw(st.integers(0, n)))
    for start in sorted(cuts):
        for stop in sorted(cuts):
            reference = _as_tuple(recorded_trace(events[start:stop]))
            assert _as_tuple(built[start:stop]) == reference
            assert _as_tuple(shuffled[start:stop]) == reference
    for stop in sorted(cuts):
        prefix = built[:stop]
        assert prefix.sites == built.sites[: len(prefix.sites)]
        assert prefix.site_ids == built.site_ids[:stop]
