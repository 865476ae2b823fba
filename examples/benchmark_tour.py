"""Tour of one paper benchmark: strategies, planning, replication.

Takes the `ghostview` stand-in (a PostScript-like interpreter whose
paint branches correlate with earlier mode-setting commands), compares
every prediction strategy on it, plans code replication, applies it,
and prints the misprediction-vs-code-size trade-off curve — a
miniature of the paper's Tables 1/5 and Figure 9 for one program.

Run with:  python examples/benchmark_tour.py [workload-name]
"""

import sys

from repro.predictors import (
    CorrelationPredictor,
    LastDirection,
    LoopCorrelationPredictor,
    LoopPredictor,
    ProfilePredictor,
    SaturatingCounter,
    ball_larus,
    evaluate,
    two_level_4k,
)
from repro.interp import run_program
from repro.replication import (
    ReplicationPlanner,
    apply_replication,
    measure_annotated,
    tradeoff_curve,
)
from repro.workloads import get_profile, get_program, get_trace, get_workload


def main(name: str = "ghostview") -> None:
    workload = get_workload(name)
    program = get_program(name)
    args, input_values = workload.default_args(1)
    print(f"benchmark: {name} — {workload.description}")
    print(f"program size: {program.size()} instructions, "
          f"{len(program.branch_sites())} static branches")

    trace = get_trace(name, 1)
    profile = get_profile(name, 1)
    print(f"trace: {len(trace)} branch events\n")

    print("=== strategy comparison (Table 1 for this benchmark) ===")
    strategies = [
        ball_larus(program),
        LastDirection(),
        SaturatingCounter(2),
        two_level_4k(),
        ProfilePredictor(profile),
        CorrelationPredictor(profile, 1),
        LoopPredictor(profile, 9),
        LoopCorrelationPredictor(profile),
    ]
    for predictor in strategies:
        result = evaluate(predictor, trace)
        print(f"  {predictor.name:25s} {result.misprediction_rate:7.2%}")

    print("\n=== replication plan (4-state budget) ===")
    planner = ReplicationPlanner(program, profile, max_states=4)
    selections = []
    for plan, option in planner.picks():
        gain = option.correct - plan.profile_correct
        print(f"  {str(plan.site):30s} {plan.info.kind.value:10s} "
              f"{option.family:10s} {option.n_states} states  "
              f"+{gain} correct  +{option.extra_size} instrs")
        selections.append((plan.site, option.scored.machine))
    report = apply_replication(program, selections, profile)
    reference = run_program(program.copy(), args, input_values)
    transformed = run_program(report.program, args, input_values)
    assert reference.value == transformed.value

    baseline = measure_annotated(
        apply_replication(program, [], profile).program, args, input_values
    )
    improved = measure_annotated(report.program, args, input_values)
    print(f"\nprofile prediction : {baseline.misprediction_rate:7.2%}")
    print(f"after replication  : {improved.misprediction_rate:7.2%} "
          f"(code size {report.size_factor:.2f}x)")

    print("\n=== trade-off curve (the benchmark's figure) ===")
    print(f"  {'size':>8s}  {'misprediction':>13s}  upgrade")
    for point in tradeoff_curve(planner, max_size_factor=50.0):
        step = "-" if point.step is None else f"{point.step[0]} -> {point.step[1]} states"
        print(f"  {point.size_factor:8.3f}  {point.misprediction_rate:13.2%}  {step}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "ghostview")
