"""Joint replication: one machine, all branches of a loop (Section 6).

Ties together the joint-machine search
(:func:`repro.statemachines.joint.best_joint_machine`) with profiling
and the loop transform:

* :func:`loop_membership` — which loop (innermost) owns each branch;
* :func:`collect_joint_tables` — per-loop, per-member pattern tables
  keyed by the loop's interleaved member-outcome history;
* :func:`replicate_loop_joint` — realise a joint machine by loop
  replication, planting per-branch predictions in every state copy.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..cfg import CFG, LoopForest
from ..ir import BranchSite, Function, Program
from ..profiling import PatternTable, Trace
from ..statemachines.joint import JointLoopMachine, ScoredJointMachine, best_joint_machine
from .loop_transform import LoopReplicationResult, replicate_loop_branch

LoopKey = Tuple[str, str]  # (function name, loop header)


def loop_membership(program: Program) -> Dict[BranchSite, LoopKey]:
    """Innermost-loop key of every conditional branch inside a loop."""
    membership: Dict[BranchSite, LoopKey] = {}
    for function in program:
        forest = LoopForest(CFG.from_function(function))
        for block in function:
            if block.branch is None:
                continue
            loop = forest.loop_of(block.label)
            if loop is not None:
                membership[BranchSite(function.name, block.label)] = (
                    function.name,
                    loop.header,
                )
    return membership


def collect_joint_tables(
    trace: Trace,
    membership: Mapping[BranchSite, LoopKey],
    bits: int = 9,
) -> Dict[LoopKey, Dict[BranchSite, PatternTable]]:
    """Pattern tables keyed by each loop's interleaved member history.

    Per loop, a history register shifts in the outcome of *every*
    member branch in trace order; each member execution is charged to
    the history value it observed.
    """
    histories: Dict[LoopKey, int] = {}
    tables: Dict[LoopKey, Dict[BranchSite, PatternTable]] = {}
    mask = (1 << bits) - 1
    sites = trace.sites
    site_keys = [membership.get(site) for site in sites]
    for sid, taken in trace.events():
        key = site_keys[sid]
        if key is None:
            continue
        history = histories.get(key, 0)
        loop_tables = tables.get(key)
        if loop_tables is None:
            loop_tables = tables[key] = {}
        site = sites[sid]
        table = loop_tables.get(site)
        if table is None:
            table = loop_tables[site] = PatternTable(bits)
        table.add(history, taken)
        histories[key] = ((history << 1) | taken) & mask
    return tables


def plan_joint_machines(
    program: Program,
    trace: Trace,
    max_states: int = 8,
    bits: int = 9,
    min_members: int = 2,
) -> Dict[LoopKey, ScoredJointMachine]:
    """Best joint machine per loop with at least *min_members* branches."""
    membership = loop_membership(program)
    tables = collect_joint_tables(trace, membership, bits)
    plans: Dict[LoopKey, ScoredJointMachine] = {}
    for key, loop_tables in tables.items():
        if len(loop_tables) < min_members:
            continue
        plans[key] = best_joint_machine(loop_tables, max_states)
    return plans


def replicate_loop_joint(
    function: Function,
    loop_header: str,
    machine: JointLoopMachine,
) -> LoopReplicationResult:
    """Realise *machine* for all its member branches at once."""
    cfg = CFG.from_function(function)
    loop = LoopForest(cfg).loop_with_header(loop_header)
    if loop is None:
        raise ValueError(f"no loop with header {loop_header!r}")
    labels = [site.block for site in machine.sites]
    label_of = {site.block: site for site in machine.sites}

    def prediction_for(state_index: int, label: str) -> bool:
        return machine.states[state_index].prediction_for(label_of[label])

    return replicate_loop_branch(function, loop, labels, machine, prediction_for, cfg)
