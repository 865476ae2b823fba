"""Speculative scheduling experiment (the paper's stated goal).

"Compile time optimizations like code motion and speculative execution
rely on an accurate branch prediction strategy."  We measure the
estimated dynamic cycle count of each benchmark on a 2-wide in-order
machine under:

* **per-block** scheduling (no prediction used);
* **superblock** scheduling along profile-predicted traces;
* **superblock after replication** — the replicated program's copies
  carry sharper predictions, so its traces follow execution more
  faithfully and speculation pays more often.

Weights come from a real instrumented run of the program being
scheduled, so a replicated program is weighed over its own (larger)
code.
"""

from __future__ import annotations

from typing import List, Optional

from ..replication import ReplicationPlanner, apply_replication
from ..scheduling import block_and_edge_counts, estimate_program_cycles
from ..workloads import BENCHMARK_NAMES, get_profile, get_program, get_workload
from .registry import register
from .report import Table


def run(
    scale: int = 1,
    names: Optional[List[str]] = None,
    max_states: int = 4,
) -> Table:
    names = names or BENCHMARK_NAMES
    table = Table(
        "Speculative scheduling: estimated cycles (2-wide, speedup vs "
        "per-block)",
        list(names),
    )
    base_row: List[int] = []
    profile_speedups: List[float] = []
    replicated_speedups: List[float] = []
    for name in names:
        program = get_program(name)
        workload = get_workload(name)
        args, input_values = workload.default_args(scale)
        profile = get_profile(name, scale)

        annotated = apply_replication(program, [], profile).program
        counts, edges = block_and_edge_counts(annotated, args, input_values)
        baseline, with_profile = estimate_program_cycles(annotated, counts, edges)
        base_row.append(baseline)
        profile_speedups.append(baseline / with_profile if with_profile else 1.0)

        planner = ReplicationPlanner(program, profile, max_states)
        selections = [
            (plan.site, option.scored.machine)
            for plan, option in planner.picks()
        ]
        replicated = apply_replication(program, selections, profile).program
        rep_counts, rep_edges = block_and_edge_counts(replicated, args, input_values)
        rep_baseline, rep_super = estimate_program_cycles(
            replicated, rep_counts, rep_edges
        )
        # Speedup relative to the replicated program's own per-block
        # baseline (the same dynamic work, block by block).
        replicated_speedups.append(
            rep_baseline / rep_super if rep_super else 1.0
        )

    table.add_row("per-block cycles", base_row)
    table.add_row(
        "superblock speedup",
        profile_speedups,
        [f"{v:.3f}x" for v in profile_speedups],
    )
    table.add_row(
        "replicated superblock speedup",
        replicated_speedups,
        [f"{v:.3f}x" for v in replicated_speedups],
    )
    return table


register("scheduling", run, "speculative superblock scheduling speedups")
