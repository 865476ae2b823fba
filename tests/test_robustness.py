"""Failure injection and degenerate-input robustness.

The pipeline should degrade gracefully: empty traces, branchless
programs, stale or mismatched profiles, and corrupted inputs must
produce clean results or typed errors — never silent corruption.
"""

import functools

import pytest

from repro.ir import BranchSite, parse_program, validate_program
from repro.interp import run_program
from repro.predictors import LastDirection, ProfilePredictor, evaluate
from repro.profiling import (
    ProfileData,
    Trace,
    TraceFormatError,
    trace_from_bytes,
    trace_program,
    trace_to_bytes,
)
from repro.replication import (
    ReplicationPlanner,
    apply_replication,
    measure_annotated,
    tradeoff_curve,
)

BRANCHLESS = """
func main(n) {
entry:
  x = mul n, 3
  out x
  ret x
}
"""


class TestBranchlessProgram:
    def test_whole_pipeline(self):
        program = parse_program(BRANCHLESS)
        trace, result = trace_program(program, [5])
        assert len(trace) == 0
        assert result.value == 15
        profile = ProfileData.from_trace(trace)
        planner = ReplicationPlanner(program, profile)
        assert planner.plans == {}
        assert planner.best_misprediction_rate(4) == 0.0
        points = tradeoff_curve(planner)
        assert len(points) == 1
        report = apply_replication(program, [], profile)
        assert report.size_factor == 1.0
        measured = measure_annotated(report.program, [5])
        assert measured.events == 0


class TestEmptyTrace:
    def test_profile_from_empty_trace(self):
        profile = ProfileData.from_trace(Trace.from_events([]))
        assert profile.events == 0
        assert profile.totals == {}
        assert profile.fill_rate(9) == 0.0

    def test_evaluate_on_empty_trace(self):
        result = evaluate(LastDirection(), Trace.from_events([]))
        assert result.events == 0
        assert result.misprediction_rate == 0.0


class TestMismatchedProfiles:
    def test_profile_from_other_program(self, alternating_loop):
        """A profile whose sites do not exist in the program must not
        crash planning (they are simply not plannable)."""
        foreign = Trace.from_events([(BranchSite("ghost_func", "ghost_block"), True)])
        profile = ProfileData.from_trace(foreign)
        planner = ReplicationPlanner(alternating_loop, profile)
        assert planner.plans == {}

    def test_predictor_with_foreign_sites(self, alternating_loop):
        trace, _ = trace_program(alternating_loop.copy(), [10])
        foreign = Trace.from_events([(BranchSite("other", "b"), True)])
        profile = ProfileData.from_trace(foreign)
        # Evaluating a profile trained elsewhere falls back to defaults.
        result = evaluate(ProfilePredictor(profile), trace)
        assert result.events == len(trace)

    def test_annotating_with_empty_profile(self, alternating_loop):
        from repro.replication import annotate_profile_predictions

        count = annotate_profile_predictions(
            alternating_loop, ProfileData.from_trace(Trace.from_events([]))
        )
        assert count == 2  # all branches get the default


class TestCorruptedTraceFiles:
    def test_every_truncation_point_raises_cleanly(self, alternating_loop):
        import zlib

        trace, _ = trace_program(alternating_loop.copy(), [20])
        blob = trace_to_bytes(trace)
        for cut in range(0, len(blob), max(1, len(blob) // 17)):
            try:
                trace_from_bytes(blob[:cut])
            except (TraceFormatError, zlib.error):
                continue
            except Exception as error:  # noqa: BLE001
                pytest.fail(f"unexpected {type(error).__name__} at cut {cut}")
            else:
                pytest.fail(f"truncation at {cut} silently accepted")

    def test_bitflips_do_not_crash_uncontrolled(self, alternating_loop):
        import zlib

        trace, _ = trace_program(alternating_loop.copy(), [20])
        blob = bytearray(trace_to_bytes(trace))
        for position in range(4, len(blob), max(1, len(blob) // 23)):
            mutated = bytearray(blob)
            mutated[position] ^= 0xFF
            try:
                loaded = trace_from_bytes(bytes(mutated))
            except (TraceFormatError, zlib.error, ValueError, MemoryError):
                continue
            # If it loaded, the structure must at least be coherent.
            assert len(loaded.directions) == (len(loaded.site_ids) + 7) // 8


class TestPlannerEdgeCases:
    def test_planner_with_single_event(self, alternating_loop):
        trace = Trace.from_events([(BranchSite("main", "body"), True)])
        profile = ProfileData.from_trace(trace)
        planner = ReplicationPlanner(alternating_loop, profile)
        plan = planner.plans[BranchSite("main", "body")]
        assert plan.profile_correct == 1
        assert not plan.improvable  # one event: nothing beats profile

    def test_max_states_one(self, alternating_loop):
        trace, _ = trace_program(alternating_loop.copy(), [50])
        profile = ProfileData.from_trace(trace)
        planner = ReplicationPlanner(alternating_loop, profile, max_states=1)
        for plan in planner.plans.values():
            assert plan.options == []

    def test_apply_empty_selection_is_identity_modulo_annotations(
        self, alternating_loop
    ):
        trace, _ = trace_program(alternating_loop.copy(), [20])
        profile = ProfileData.from_trace(trace)
        report = apply_replication(alternating_loop, [], profile)
        assert report.size_after == report.size_before
        assert run_program(report.program, [20]).value == run_program(
            alternating_loop.copy(), [20]
        ).value


class TestInterpreterFaultsSurface:
    def test_trap_propagates_through_tracing(self):
        program = parse_program(
            "func main(n) {\nentry:\n  x = div 1, n\n  ret x\n}"
        )
        from repro.interp import TrapError

        with pytest.raises(TrapError):
            trace_program(program, [0])

    def test_fuel_exhaustion_through_measurement(self, monkeypatch):
        program = parse_program(
            "func main() {\nentry:\n  jump entry\n}"
        )
        from repro.interp import FuelExhausted, Machine
        from repro.replication import annotate

        monkeypatch.setattr(annotate, "Machine", functools.partial(Machine, max_steps=1000))
        with pytest.raises(FuelExhausted):
            measure_annotated(program)
