"""Speculative superblock scheduling driven by branch predictions.

The paper's point of doing prediction at *compile time* is that code
motion can use it.  This example forms superblocks along predicted
paths, schedules them on a model 2-wide machine, and shows how
replication-sharpened predictions change the picture on a benchmark.

Run with:  python examples/speculative_scheduling.py [workload-name]
"""

import sys

from repro.cfg import LivenessInfo
from repro.replication import ReplicationPlanner, apply_replication
from repro.scheduling import (
    block_and_edge_counts,
    estimate_program_cycles,
    form_superblocks,
    schedule_blocks_individually,
    schedule_superblock,
)
from repro.workloads import get_profile, get_program, get_workload


def main(name: str = "c-compiler") -> None:
    program = get_program(name)
    workload = get_workload(name)
    args, input_values = workload.default_args(1)
    profile = get_profile(name, 1)

    annotated = apply_replication(program, [], profile).program
    print(f"benchmark: {name}\n")

    # Show the hottest trace and its region schedule.
    function = annotated.main_function()
    traces = form_superblocks(function)
    trace = max(traces, key=lambda t: len(t.blocks))
    print(f"longest predicted trace: {' -> '.join(trace.blocks)}")
    liveness = LivenessInfo(function)
    region = schedule_superblock(function, trace, liveness)
    blockwise = schedule_blocks_individually(function, trace)
    print(f"per-block schedule : {blockwise} cycles")
    print(f"region schedule    : {region.cycles} cycles "
          f"({blockwise / region.cycles:.2f}x)\n")

    # Whole-program estimates, before and after replication.
    counts, edges = block_and_edge_counts(annotated, args, input_values)
    baseline, with_profile = estimate_program_cycles(annotated, counts, edges)
    print(f"whole program, profile predictions:")
    print(f"  per-block  : {baseline} cycles")
    print(f"  superblock : {with_profile} cycles "
          f"({baseline / with_profile:.3f}x)")

    planner = ReplicationPlanner(program, profile, max_states=4)
    selections = [
        (plan.site, option.scored.machine) for plan, option in planner.picks()
    ]
    replicated = apply_replication(program, selections, profile).program
    rep_counts, rep_edges = block_and_edge_counts(replicated, args, input_values)
    rep_base, rep_super = estimate_program_cycles(replicated, rep_counts, rep_edges)
    print(f"\nwhole program, after replication ({len(selections)} branches):")
    print(f"  per-block  : {rep_base} cycles")
    print(f"  superblock : {rep_super} cycles ({rep_base / rep_super:.3f}x)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "c-compiler")
