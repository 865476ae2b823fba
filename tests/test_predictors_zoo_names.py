"""Lint-style checks over the whole predictor zoo: every predictor
carries its name as an *instance* attribute (set via
``Predictor.__init__``), no concrete class shadows it at class level,
and names are unique across the zoo — they key result tables, so a
collision would silently merge two rows."""

from repro.predictors import (
    LastDirection,
    SaturatingCounter,
    all_yeh_patt_variants,
    semistatic_suite,
    static_predictors,
    two_level_4k,
)
from repro.profiling import ProfileData, Trace


def _zoo(alternating_loop):
    trace = Trace.from_events(
        (site, bool(bit))
        for site in alternating_loop.branch_sites()
        for bit in (1, 1, 0, 1)
    )
    profile = ProfileData.from_trace(trace)
    return [
        *static_predictors(alternating_loop),
        *semistatic_suite(profile),
        LastDirection(),
        SaturatingCounter(2),
        *all_yeh_patt_variants().values(),
        two_level_4k(),
    ]


def test_names_are_unique_nonempty_strings(alternating_loop):
    zoo = _zoo(alternating_loop)
    names = [predictor.name for predictor in zoo]
    for name in names:
        assert isinstance(name, str) and name, name
    duplicates = {name for name in names if names.count(name) > 1}
    assert not duplicates, f"duplicate predictor names: {sorted(duplicates)}"


def test_name_is_an_instance_attribute_everywhere(alternating_loop):
    for predictor in _zoo(alternating_loop):
        assert "name" in vars(predictor), type(predictor).__name__
        assert "name" not in type(predictor).__dict__, type(predictor).__name__
