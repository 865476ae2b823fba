"""Superblock formation along predicted paths, and speculative
scheduling of the result.

This is the consumer the paper builds its prediction machinery *for*:
"we will apply branch prediction to compiler based speculative
execution and other code motion techniques".  A superblock is a
straight-line trace of blocks following each branch's ``predict``
annotation; scheduling the whole trace as one region lets pure
computations start before the branches that guard them (speculation),
shortening the critical path — but only pays off when the predictions
hold, which is exactly what code replication improves.

Safety rules for hoisting an instruction above a branch:

* the instruction has no side effect and cannot trap (``div``/``mod``
  excluded);
* its destination register is not live into the branch's off-trace
  successor (otherwise the speculated write clobbers it).

Unsafe instructions keep an extra dependence edge on the branch, which
is how the region scheduler enforces the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cfg import CFG, LivenessInfo
from ..ir import BinOp, Branch, Function, Instr, Jump, Program, Terminator
from ..layout import run_edges
from .deps import DEFAULT_LATENCIES, build_dep_graph, has_side_effect
from .listsched import Schedule, list_schedule


@dataclass
class Superblock:
    """A predicted trace: block labels plus the flattened instructions."""

    function: str
    blocks: List[str]
    instrs: List[Instr]
    #: indices (into instrs) of the conditional branches inside the trace
    branch_positions: List[int]
    #: index of the block each instruction came from
    block_of: List[int]


def _predicted_successor(terminator: Terminator) -> Optional[str]:
    if isinstance(terminator, Jump):
        return terminator.target
    if isinstance(terminator, Branch):
        if terminator.predict is None:
            return None
        return terminator.taken if terminator.predict else terminator.not_taken
    return None


def form_superblocks(
    function: Function,
    block_counts: Optional[Dict[str, int]] = None,
) -> List[Superblock]:
    """Partition reachable blocks into predicted traces.

    A trace starts at a seed and extends along the predicted successor
    until it reaches a block already placed in some trace.  Seeds are
    the entry first, then — when *block_counts* (label -> executions)
    is given — the hottest unplaced blocks, so hot loop bodies become
    long traces even in heavily replicated code; without counts, seeds
    follow layout order.
    """
    cfg = CFG.from_function(function)
    reachable = cfg.reachable()
    placed: Set[str] = set()
    traces: List[Superblock] = []
    rest = [label for label in function.blocks if label != function.entry]
    if block_counts is not None:
        rest.sort(key=lambda label: -block_counts.get(label, 0))
    seeds = [function.entry] + rest
    # Reverse predicted-successor map, for backward trace growth.
    predicted_pred: Dict[str, List[str]] = {}
    for block in function:
        succ = _predicted_successor(block.terminator)
        if succ is not None:
            predicted_pred.setdefault(succ, []).append(block.label)
    for seed in seeds:
        if seed not in reachable or seed in placed:
            continue
        # Grow backward first: a hot mid-loop seed should not rotate
        # the trace away from the block executions actually enter at.
        head = seed
        on_path = {seed}
        while True:
            predecessors = [
                p
                for p in predicted_pred.get(head, ())
                if p in reachable and p not in placed and p not in on_path
            ]
            if not predecessors:
                break
            if block_counts is not None:
                predecessors.sort(key=lambda label: -block_counts.get(label, 0))
            head = predecessors[0]
            on_path.add(head)
        blocks: List[str] = []
        label: Optional[str] = head
        while label is not None and label not in placed and label in reachable:
            blocks.append(label)
            placed.add(label)
            label = _predicted_successor(function.block(label).terminator)
        instrs: List[Instr] = []
        branch_positions: List[int] = []
        block_of: List[int] = []
        for block_index, block_label in enumerate(blocks):
            block = function.block(block_label)
            for instr in block.instrs:
                instrs.append(instr)
                block_of.append(block_index)
            terminator = block.terminator
            if isinstance(terminator, Branch):
                branch_positions.append(len(instrs))
            instrs.append(terminator)
            block_of.append(block_index)
        traces.append(
            Superblock(function.name, blocks, instrs, branch_positions, block_of)
        )
    return traces


def _can_speculate(instr: Instr) -> bool:
    if has_side_effect(instr) or isinstance(instr, Terminator):
        return False
    if isinstance(instr, BinOp) and instr.op in ("div", "mod"):
        return False  # may trap on zero
    return True


def schedule_superblock(
    function: Function,
    trace: Superblock,
    liveness: Optional[LivenessInfo] = None,
    issue_width: int = 2,
    latencies: Dict[str, int] = DEFAULT_LATENCIES,
    allow_speculation: bool = True,
) -> Schedule:
    """Region-schedule *trace*; speculation governed by liveness."""
    liveness = liveness or LivenessInfo(function)
    graph = build_dep_graph(trace.instrs, latencies)
    # Off-trace live sets per branch inside the trace.
    for position in trace.branch_positions:
        branch = trace.instrs[position]
        assert isinstance(branch, Branch)
        on_trace = _predicted_successor(branch)
        off_trace = (
            branch.not_taken if on_trace == branch.taken else branch.taken
        )
        off_live = liveness.live_into(off_trace) if off_trace in function.blocks else set()
        for later in range(position + 1, len(trace.instrs)):
            instr = trace.instrs[later]
            speculable = (
                allow_speculation
                and _can_speculate(instr)
                and not (set(instr.defs()) & off_live)
            )
            if not speculable:
                # Pin the instruction below this branch.
                graph.preds[later].append((position, 1))
                graph.succs[position].append(later)
    return list_schedule(graph, issue_width, latencies)


def schedule_blocks_individually(
    function: Function,
    trace: Superblock,
    issue_width: int = 2,
    latencies: Dict[str, int] = DEFAULT_LATENCIES,
) -> int:
    """Baseline: sum of per-block schedule lengths along the trace."""
    total = 0
    for label in trace.blocks:
        block = function.block(label)
        instrs: List[Instr] = list(block.instrs)
        if block.terminator is not None:
            instrs.append(block.terminator)
        total += list_schedule(build_dep_graph(instrs, latencies), issue_width, latencies).cycles
    return total


def block_and_edge_counts(
    program: Program, args: Sequence[int] = (), input_values: Sequence[int] = ()
) -> Tuple[Dict[Tuple[str, str], int], Dict[Tuple[str, str, str], int]]:
    """The ``(block counts, edge counts)`` weights of
    :func:`estimate_program_cycles`, from one run of *program*.  A
    block's count is the executions of the edges into it; a function's
    entry block that no edge enters counts 1."""
    edge_counts, _steps = run_edges(program, args, input_values)
    counts: Dict[Tuple[str, str], int] = {}
    for (function, _source, target), count in edge_counts.items():
        key = (function, target)
        counts[key] = counts.get(key, 0) + count
    for function in program:
        counts.setdefault((function.name, function.entry), 1)
    return counts, edge_counts


def estimate_program_cycles(
    program: Program,
    block_counts: Dict[Tuple[str, str], int],
    edge_counts: Optional[Dict[Tuple[str, str, str], int]] = None,
    issue_width: int = 2,
    latencies: Dict[str, int] = DEFAULT_LATENCIES,
    allow_speculation: bool = True,
) -> Tuple[int, int]:
    """Weighted (baseline, superblock) cycle estimates for a program.

    *block_counts* maps (function, label) to execution counts (from an
    edge profile).  Every block's cost is its schedule length within
    its trace: under superblock scheduling a block's instructions may
    start early, so the per-block incremental cost is the difference
    between cumulative trace schedules with and without it.

    When *edge_counts* is given (``(function, source, target) ->
    executions``), every off-trace exit additionally pays for the
    speculated work it wasted: the instructions of later blocks that
    the region scheduler had already issued above the exiting branch.
    This is the term accurate prediction shrinks.
    """
    baseline_total = 0
    super_total = 0
    for function in program:
        local_counts = {
            label: count
            for (function_name, label), count in block_counts.items()
            if function_name == function.name
        }
        liveness = LivenessInfo(function)
        baseline_total += _baseline_cycles(
            function, local_counts, issue_width, latencies
        )
        # Two trace-formation policies — layout-order seeds and
        # hot-seeds-with-backward-growth — suit different code shapes
        # (straight-line vs replicated loops); keep the better schedule.
        candidates = []
        for counts_arg in (None, local_counts):
            traces = form_superblocks(function, counts_arg)
            candidates.append(
                _superblock_cycles(
                    function,
                    traces,
                    local_counts,
                    edge_counts,
                    liveness,
                    issue_width,
                    latencies,
                    allow_speculation,
                )
            )
        super_total += min(candidates)
    return baseline_total, super_total


def _baseline_cycles(
    function: Function,
    local_counts: Dict[str, int],
    issue_width: int,
    latencies: Dict[str, int],
) -> int:
    total = 0
    for block in function:
        weight = local_counts.get(block.label, 0)
        if not weight:
            continue
        instrs: List[Instr] = list(block.instrs)
        if block.terminator is not None:
            instrs.append(block.terminator)
        length = list_schedule(
            build_dep_graph(instrs, latencies), issue_width, latencies
        ).cycles
        total += weight * length
    return total


def _superblock_cycles(
    function: Function,
    traces: List[Superblock],
    local_counts: Dict[str, int],
    edge_counts: Optional[Dict[Tuple[str, str, str], int]],
    liveness: LivenessInfo,
    issue_width: int,
    latencies: Dict[str, int],
    allow_speculation: bool,
) -> int:
    total = 0
    for trace in traces:
        weights = [local_counts.get(label, 0) for label in trace.blocks]
        if not any(weights):
            continue
        schedule = schedule_superblock(
            function, trace, liveness, issue_width, latencies, allow_speculation
        )
        finish_by_block: List[int] = [0] * len(trace.blocks)
        for position, start in enumerate(schedule.start_cycle):
            block_index = trace.block_of[position]
            finish_by_block[block_index] = max(
                finish_by_block[block_index], start + 1
            )
        previous = 0
        for block_index, weight in enumerate(weights):
            cumulative = max(finish_by_block[block_index], previous)
            incremental = cumulative - previous
            previous = cumulative
            total += weight * incremental
        if edge_counts:
            total += _divergence_cost(
                function, trace, schedule, edge_counts, issue_width
            )
    return total


def _divergence_cost(
    function: Function,
    trace: Superblock,
    schedule: Schedule,
    edge_counts: Dict[Tuple[str, str, str], int],
    issue_width: int,
) -> int:
    """Wasted-speculation cycles charged to off-trace exits."""
    total = 0
    for position in trace.branch_positions:
        branch = trace.instrs[position]
        assert isinstance(branch, Branch)
        on_trace = _predicted_successor(branch)
        off_trace = branch.not_taken if on_trace == branch.taken else branch.taken
        label = trace.blocks[trace.block_of[position]]
        exits = edge_counts.get((function.name, label, off_trace), 0)
        if not exits:
            continue
        branch_start = schedule.start_cycle[position]
        wasted = sum(
            1
            for later, start in enumerate(schedule.start_cycle)
            if trace.block_of[later] > trace.block_of[position]
            and start <= branch_start
        )
        total += exits * -(-wasted // issue_width)  # ceil division
    return total
