"""Table 3: loop and loop-exit branches — full history vs state machines.

For each history depth *k* the table shows the misprediction of loop
branches under the complete k-bit pattern table, and under the best
(k+1)-state machine for intra-loop and loop-exit branches ("so we
grouped always a history with n bits with a n+1 state machine to show
the effect of accuracy loss").
"""

from __future__ import annotations

from typing import List, Optional

from ..cfg import BranchClass, classify_branches
from ..statemachines import best_intra_machine, best_loop_exit_machine, node_counts
from ..workloads import BENCHMARK_NAMES, get_profile, get_program
from .registry import register
from .report import Table, pct


def _subset_rate_full_history(profile, sites, bits: int) -> float:
    """Misprediction of *sites* with per-pattern majority at depth *bits*."""
    total = correct = 0
    for site in sites:
        table = profile.local[site].marginalize(bits)
        total += table.executions()
        correct += table.correct_if_per_pattern()
    return (total - correct) / total if total else 0.0


def _subset_rate_machines(
    profile, infos, nodes, sites, n_states: int, intra: bool
) -> float:
    total = correct = 0
    for site in sites:
        table = profile.local[site]
        if intra:
            scored = best_intra_machine(table, n_states, nodes=nodes[site])
        else:
            scored = best_loop_exit_machine(
                table,
                n_states,
                exit_on_taken=infos[site].taken_exits,
                nodes=nodes[site],
            )
        total += scored.total
        correct += scored.correct
    return (total - correct) / total if total else 0.0


def run(
    scale: int = 1,
    names: Optional[List[str]] = None,
    max_bits: int = 8,
) -> Table:
    names = names or BENCHMARK_NAMES
    table = Table(
        "Table 3: misprediction rates of loop and loop exit branches in percent",
        list(names),
    )
    contexts = {}
    for name in names:
        profile = get_profile(name, scale)
        infos = classify_branches(get_program(name))
        intra = [
            site
            for site in profile.totals
            if site in infos and infos[site].kind is BranchClass.INTRA_LOOP
        ]
        exits = [
            site
            for site in profile.totals
            if site in infos and infos[site].kind is BranchClass.LOOP_EXIT
        ]
        # Every history depth searches the same tables: count once.
        nodes = {site: node_counts(profile.local[site]) for site in intra + exits}
        contexts[name] = (profile, infos, intra, exits, nodes)

    for label, subset_index in (("loop", 2), ("exit", 3)):
        profile_row = [
            _subset_rate_full_history(
                contexts[name][0], contexts[name][subset_index], 0
            )
            for name in names
        ]
        table.add_row(
            f"profile ({label})", profile_row, [pct(v) for v in profile_row]
        )

    for bits in range(1, max_bits + 1):
        for label, subset_index in (("loop", 2), ("exit", 3)):
            history_row, machine_row = [], []
            for name in names:
                profile, infos, intra, exits, nodes = contexts[name]
                sites = contexts[name][subset_index]
                history_row.append(
                    _subset_rate_full_history(profile, sites, bits)
                )
                machine_row.append(
                    _subset_rate_machines(
                        profile, infos, nodes, sites, bits + 1, intra=(label == "loop")
                    )
                )
            table.add_row(
                f"{bits} bit {label}", history_row, [pct(v) for v in history_row]
            )
            table.add_row(
                f"{bits + 1} states {label}",
                machine_row,
                [pct(v) for v in machine_row],
            )
    return table


register("table3", run, "loop/exit branches: full history vs state machines")
