"""End-to-end integration tests over the real workloads.

Each test runs the full pipeline — trace, profile, plan, transform,
re-run — the way the paper's tools chain together.
"""

import pytest

from repro.interp import run_program
from repro.ir import validate_program
from repro.predictors import ProfilePredictor, evaluate
from repro.profiling import ProfileData
from repro.replication import (
    ReplicationPlanner,
    apply_replication,
    measure_annotated,
    tradeoff_curve,
)
from repro.workloads import get_profile, get_program, get_trace, get_workload


@pytest.mark.parametrize("name", ["ghostview", "compress", "c-compiler"])
def test_full_pipeline_improves_misprediction(name):
    program = get_program(name)
    workload = get_workload(name)
    args, input_values = workload.default_args(1)
    profile = get_profile(name, 1)
    planner = ReplicationPlanner(program, profile, max_states=4)

    selections = [(plan.site, option.scored.machine) for plan, option in planner.picks()]
    assert selections, f"{name} should have improvable branches"

    report = apply_replication(program, selections, profile)
    validate_program(report.program)

    # Behaviour is preserved.
    reference = run_program(program.copy(), args, input_values)
    transformed = run_program(report.program, args, input_values)
    assert transformed.value == reference.value
    assert transformed.output == reference.output

    # Misprediction improves over plain profile annotation.
    baseline = measure_annotated(
        apply_replication(program, [], profile).program, args, input_values
    )
    improved = measure_annotated(report.program, args, input_values)
    assert improved.mispredictions < baseline.mispredictions

    # And roughly matches what the planner promised.
    promised = planner.best_misprediction_rate(4)
    assert improved.misprediction_rate == pytest.approx(promised, abs=0.05)


def test_measured_rate_close_to_planned_across_suite():
    # Aggregate check on two more benchmarks with a looser tolerance.
    for name in ["c-compiler", "scheduler"]:
        program = get_program(name)
        workload = get_workload(name)
        args, input_values = workload.default_args(1)
        profile = get_profile(name, 1)
        planner = ReplicationPlanner(program, profile, max_states=3)
        selections = [
            (plan.site, option.scored.machine) for plan, option in planner.picks()
        ]
        report = apply_replication(program, selections, profile)
        validate_program(report.program)
        transformed = run_program(report.program, args, input_values)
        reference = run_program(program.copy(), args, input_values)
        assert transformed.value == reference.value


def test_tradeoff_curve_end_matches_applied_program():
    """The analytic size model must be in the ballpark of real sizes."""
    name = "ghostview"
    program = get_program(name)
    profile = get_profile(name, 1)
    planner = ReplicationPlanner(program, profile, max_states=3)
    points = tradeoff_curve(planner, max_size_factor=4.0)
    if len(points) < 2:
        pytest.skip("no upgrades under the cap")
    # Apply the same upgrades for real.
    chosen = {}
    for point in points[1:]:
        site, n_states = point.step
        plan = planner.plans[site]
        option = next(o for o in plan.options if o.n_states == n_states)
        chosen[site] = option
    report = apply_replication(
        program, [(site, o.scored.machine) for site, o in chosen.items()], profile
    )
    analytic = points[-1].size_factor
    actual = report.size_factor
    # Pruning makes the real program smaller than the model; cascading
    # through shared loops can make it bigger.  Same ballpark required.
    assert actual < analytic * 2.5 + 1.0


def test_profile_evaluation_agrees_with_measurement():
    """Trace-driven evaluation and in-program measurement must agree."""
    name = "predict"
    program = get_program(name)
    workload = get_workload(name)
    args, input_values = workload.default_args(1)
    trace = get_trace(name, 1)
    profile = ProfileData.from_trace(trace)
    evaluated = evaluate(ProfilePredictor(profile), trace)
    measured = measure_annotated(
        apply_replication(program, [], profile).program, args, input_values
    )
    assert measured.events == evaluated.events
    assert measured.mispredictions == evaluated.mispredictions
