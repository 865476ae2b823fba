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

import random

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
from repro.profiling import (
    ProfileData,
    Trace,
    profile_to_bytes,
    trace_from_bytes,
    trace_to_bytes,
)
from repro.profiling.columns import unpack_bits

from conftest import NUMPY_MODES, numpy_mode, reference_profile


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
    return Trace.from_events(
        (BranchSite("f", f"b{site_index}"), taken) for site_index, taken in events
    )


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


@given(events_strategy, st.sampled_from(NUMPY_MODES))
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


#: History-register widths either side of the view's uint8 -> uint16
#: -> uint32 column steps.
REGISTER_WIDTHS = [8, 9, 16, 17]


def width_predictors(profile, bits):
    """Every kernel that reads a *bits*-bit register of the view."""
    return [
        two_level_4k(bits),
        *all_yeh_patt_variants(bits).values(),
        CorrelationPredictor(profile, bits),
        LoopPredictor(profile, bits),
    ]


@pytest.mark.parametrize("bits", REGISTER_WIDTHS)
def test_numpy_and_fallback_agree_at_register_widths(bits):
    """Registers are stored in the narrowest dtype for their width; at
    each width step the kernels and the columnar profile tables must
    still equal the sequential reference and the per-event profile
    oracle.  Random
    outcomes over five sites set every register bit."""
    rng = random.Random(bits)
    events = [(rng.randrange(5), rng.random() < 0.6) for _ in range(800)]
    trace_bytes = trace_to_bytes(build_trace(events))
    with numpy_mode(False):
        trace = trace_from_bytes(trace_bytes)
        columnar = ProfileData.from_trace(trace, bits, bits)
        columnar_bytes = profile_to_bytes(columnar)
    reference = reference_profile(trace, bits, bits)
    assert columnar_bytes == profile_to_bytes(reference)
    modes = []
    for disabled in (False, True):
        with numpy_mode(disabled):
            trace = trace_from_bytes(trace_bytes)
            modes.append(evaluate_many(width_predictors(reference, bits), trace))
    assert_results_identical(*modes)


@pytest.mark.parametrize("bits", [31, 33, 60, 70])
def test_two_level_counter_keys_wider_than_int32(bits):
    """Past 31 history bits a two-level counter key no longer fits
    int32 (and past 32 the register column is uint64), so the kernel
    builds its keys in int64.  Where a key does not fit int64 either
    (60 bits with per-set or per-address pattern tables, 70 with any)
    the kernel declines and the engine replays the sequential
    reference.  Every scope must match it.  Twelve sites give two
    per-set tables whose set indices agree in their low four bits, the
    only ones a 60-bit shift into int64 keeps."""
    rng = random.Random(bits)
    events = [(rng.randrange(12), rng.random() < 0.6) for _ in range(400)]
    trace_bytes = trace_to_bytes(build_trace(events))
    modes = []
    for disabled in (False, True):
        with numpy_mode(disabled):
            trace = trace_from_bytes(trace_bytes)
            modes.append(evaluate_many(list(all_yeh_patt_variants(bits).values()), trace))
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
        trace = Trace.from_events(
            (BranchSite("f", f"b{index % 3}"), taken) for index, taken in enumerate(bits)
        )
        loaded = trace_from_bytes(trace_to_bytes(trace))
        columns = loaded.columns()
        assert columns.n_events == count
        assert len(columns.directions) == count
        assert list(columns.directions) == [1 if bit else 0 for bit in bits]
        assert [taken for _, taken in loaded.events()] == bits
