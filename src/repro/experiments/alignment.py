"""Branch alignment experiment (the paper's target application).

"In general, an optimization technique like branch aligning ... is not
applied to a branch whose prediction accuracy is low.  If code
replication improves the accuracy of the prediction for this branch,
such an optimization can be applied."

For each benchmark — same input, so the variants do the same work — we
measure two absolute dynamic quantities:

* **taken transfers**: control transfers that do not fall through to
  the next block in layout order (what alignment minimises);
* **instructions executed** (what loop rotation minimises);

under the original layout; loop rotation alone (Mueller/Whalley jump
avoidance); rotation + profile-guided chain layout with branch
alignment; and the same after code replication, whose copies carry
accurate predictions for alignment to exploit.
"""

from __future__ import annotations

from typing import List, Optional

from ..layout import (
    edge_profiles,
    layout_program,
    rotate_program,
    run_edges,
    transfer_stats,
    TransferStats,
)
from ..replication import ReplicationPlanner, apply_replication
from ..workloads import BENCHMARK_NAMES, get_profile, get_program, get_workload
from .registry import register
from .report import Table


def _lay_out(program, args, input_values) -> TransferStats:
    """Align and chain-order *program* from one instrumented run, and
    count that run's taken transfers under the new layout: layout moves
    blocks and flips branches, so the run's edges and step count are the
    laid-out program's too."""
    edges, steps = run_edges(program, args, input_values)
    layout_program(program, edge_profiles(program, edges))
    return transfer_stats(program, edges, steps)


def run(
    scale: int = 1,
    names: Optional[List[str]] = None,
    max_states: int = 4,
) -> Table:
    names = names or BENCHMARK_NAMES
    table = Table(
        "Branch alignment: dynamic taken transfers / executed "
        "instructions (thousands; same input per column)",
        list(names),
    )
    rows = {
        "original layout": [],
        "rotated": [],
        "rotated + aligned": [],
        "replicated + aligned": [],
    }
    for name in names:
        program = get_program(name)
        workload = get_workload(name)
        args, input_values = workload.default_args(scale)
        profile = get_profile(name, scale)

        rows["original layout"].append(
            transfer_stats(program, *run_edges(program, args, input_values))
        )

        # Loop rotation alone (Mueller/Whalley jump avoidance).
        rotated = program.copy()
        rotate_program(rotated)
        rows["rotated"].append(
            transfer_stats(rotated, *run_edges(rotated, args, input_values))
        )

        # Profile annotations + rotation + alignment + chain layout.
        baseline = apply_replication(program, [], profile).program
        rotate_program(baseline)
        rows["rotated + aligned"].append(_lay_out(baseline, args, input_values))

        # Replicate first, then rotate + align the result.
        planner = ReplicationPlanner(program, profile, max_states)
        selections = [
            (plan.site, option.scored.machine)
            for plan, option in planner.picks()
        ]
        replicated = apply_replication(program, selections, profile).program
        rotate_program(replicated)
        rows["replicated + aligned"].append(_lay_out(replicated, args, input_values))

    for label, stats_row in rows.items():
        table.add_row(
            label,
            [(s.taken, s.instructions) for s in stats_row],
            [
                f"{s.taken / 1000:.1f}/{s.instructions / 1000:.0f}"
                for s in stats_row
            ],
        )
    return table


register("alignment", run, "branch alignment and loop rotation after replication")
