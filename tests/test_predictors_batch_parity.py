"""Columnar batch-kernel parity and packed-direction boundary tests.

The batch engine's contract is *byte identity*: for every registered
predictor family, ``evaluate_many`` must produce exactly the results of
the sequential reference ``evaluate`` — same totals, same per-site
attribution — on any trace, with numpy (the kernels) and without it
(``REPRO_NO_NUMPY``: the engine's sequential route).  Hypothesis drives
random traces through the full family zoo in both modes.

The second half pins the bit-unpack boundaries of the packed-direction
path: event counts straddling byte edges (0, 1, 7, 8, 9, 63, 64, 65)
must round-trip through the trace file format and expand to exactly
``n_events`` direction bytes, with the padding bits of the final packed
byte masked off.
"""

import os
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir import BranchSite
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    CorrelationPredictor,
    LastDirection,
    LoopCorrelationPredictor,
    LoopPredictor,
    ProfilePredictor,
    SaturatingCounter,
    all_yeh_patt_variants,
    evaluate,
    evaluate_many,
    two_level_4k,
)
from repro.profiling import ProfileData, Trace, trace_from_bytes, trace_to_bytes
from repro.profiling.columns import get_numpy, unpack_bits


@contextmanager
def numpy_mode(disabled: bool):
    """Force (or release) the no-numpy route within the block.

    ``get_numpy`` consults ``REPRO_NO_NUMPY`` live, so flipping the
    environment variable is the sanctioned way to exercise the no-numpy
    route without uninstalling numpy.  The previous value is restored
    so the test never leaks mode into the rest of the session (the CI
    no-numpy leg sets the variable globally).
    """
    saved = os.environ.get("REPRO_NO_NUMPY")
    if disabled:
        os.environ["REPRO_NO_NUMPY"] = "1"
    else:
        os.environ.pop("REPRO_NO_NUMPY", None)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_NUMPY", None)
        else:
            os.environ["REPRO_NO_NUMPY"] = saved


def family_predictors(profile):
    """One instance per registered predictor family/configuration.

    Statics (closed form), the dynamic counters, every Yeh/Patt scope
    combination, and the profile-driven semi-static machines — each
    routes through a different engine path or kernel.
    """
    return [
        AlwaysTaken(),
        AlwaysNotTaken(),
        LastDirection(),
        SaturatingCounter(1),
        SaturatingCounter(2),
        SaturatingCounter(3),
        two_level_4k(),
        *all_yeh_patt_variants(4).values(),
        ProfilePredictor(profile),
        CorrelationPredictor(profile, 1),
        CorrelationPredictor(profile, 2),
        LoopPredictor(profile, 1),
        LoopPredictor(profile, 9),
        LoopCorrelationPredictor(profile),
    ]


def build_trace(events):
    trace = Trace()
    for site_index, taken in events:
        trace.record(BranchSite("f", f"b{site_index}"), taken)
    return trace


def assert_results_identical(reference, batch):
    assert len(reference) == len(batch)
    for a, b in zip(reference, batch):
        assert a.predictor == b.predictor
        assert a.events == b.events
        assert a.mispredictions == b.mispredictions
        assert a.per_site == b.per_site


events_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.booleans()), max_size=200
)


@given(events_strategy, st.booleans())
@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_kernels_match_sequential_evaluate(events, no_numpy):
    with numpy_mode(no_numpy):
        trace = build_trace(events)
        profile = ProfileData.from_trace(trace)
        reference = [
            evaluate(predictor, trace)
            for predictor in family_predictors(profile)
        ]
        batch = evaluate_many(family_predictors(profile), trace)
        assert_results_identical(reference, batch)


@given(events_strategy)
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_numpy_and_fallback_kernels_agree(events):
    if get_numpy() is None:
        pytest.skip("numpy unavailable; only one mode to compare")
    trace_bytes = trace_to_bytes(build_trace(events))
    modes = []
    for disabled in (False, True):
        with numpy_mode(disabled):
            trace = trace_from_bytes(trace_bytes)
            profile = ProfileData.from_trace(trace)
            modes.append(
                evaluate_many(family_predictors(profile), trace)
            )
    assert_results_identical(*modes)


#: Counts straddling the packed-byte boundaries: empty, single bit,
#: either side of one byte, and either side of the eighth byte.
BOUNDARY_COUNTS = [0, 1, 7, 8, 9, 63, 64, 65]


def _boundary_bits(count):
    # Period-3 pattern: never aligns with the 8-bit packing, so a
    # byte-order or bit-order slip changes the expansion.
    return [(index % 3) == 1 for index in range(count)]


@pytest.mark.parametrize("count", BOUNDARY_COUNTS)
def test_unpack_bits_boundaries(count):
    bits = _boundary_bits(count)
    packed = bytearray((count + 7) // 8)
    for index, bit in enumerate(bits):
        if bit:
            packed[index // 8] |= 1 << (index % 8)
    if count % 8:
        # Garbage in the final byte's padding bits must be masked off.
        packed[-1] |= 0x80
    out = unpack_bits(bytes(packed), count)
    assert len(out) == count
    assert list(out) == [1 if bit else 0 for bit in bits]


@pytest.mark.parametrize("no_numpy", [False, True], ids=["numpy", "fallback"])
@pytest.mark.parametrize("count", BOUNDARY_COUNTS)
def test_packed_directions_roundtrip_at_boundaries(count, no_numpy):
    with numpy_mode(no_numpy):
        bits = _boundary_bits(count)
        trace = Trace()
        for index, taken in enumerate(bits):
            trace.record(BranchSite("f", f"b{index % 3}"), taken)
        loaded = trace_from_bytes(trace_to_bytes(trace))
        columns = loaded.columns()
        assert columns.n_events == count
        assert len(columns.directions) == count
        assert list(columns.directions) == [1 if bit else 0 for bit in bits]
        assert [taken for _, taken in loaded.events()] == bits
