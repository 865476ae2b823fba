"""Trace collection: run an instrumented program and record its branches.

This is the reproduction of the paper's tracing tool.  Where the paper
inserts trace code into the assembly source, we attach a callback to
the interpreter — the resulting event stream (branch number +
direction) is identical in content.  :func:`instrumented_run` is the
one place the interpreter runs to profile; the other entry points here
are views of its result.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..interp import Machine, RunResult
from ..ir import BranchSite, Program
from .patterns import PatternTable, ProfileData
from .trace import Trace


def instrumented_run(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 100_000_000,
    history_bits: int = 0,
    max_branches: Optional[int] = None,
) -> Tuple[Trace, Dict[BranchSite, PatternTable], RunResult]:
    """Execute *program* once, returning ``(trace, path_tables, result)``.

    With ``history_bits`` > 0 the same pass also builds per-branch
    pattern tables keyed by *frame-local path history*: the outcomes of
    the last *history_bits* conditional branches executed in the same
    function activation.  That is exactly what CFG-path replication can
    encode into the program counter; raw global history additionally
    sees callee branches, which no intraprocedural transform can track,
    so the correlated-branch planner trains on these tables.  They
    cannot be derived from the flat trace.  Without history the tables
    are empty.

    ``max_branches`` mirrors the paper's "we traced the whole program
    up to a maximum of 100 million branch instructions": recording
    stops (but execution continues) after that many events.
    """
    trace = Trace()
    tables: Dict[BranchSite, PatternTable] = {}
    record = trace.record
    if history_bits > 0:

        def record(site: BranchSite, taken: bool) -> None:
            trace.record(site, taken)
            table = tables.get(site)
            if table is None:
                table = tables[site] = PatternTable(history_bits)
            table.add(machine.path_history, 1 if taken else 0)

    if max_branches is not None:
        record_all = record

        def record(site: BranchSite, taken: bool) -> None:
            if len(trace) < max_branches:
                record_all(site, taken)

    machine = Machine(
        program, input_values, max_steps, record, track_history_bits=history_bits
    )
    return trace, tables, machine.run(*args)


def trace_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 100_000_000,
    max_branches: Optional[int] = None,
) -> Tuple[Trace, RunResult]:
    """Execute *program* and collect its branch trace."""
    trace, _, result = instrumented_run(
        program, args, input_values, max_steps, max_branches=max_branches
    )
    return trace, result


def profile_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    local_bits: int = 9,
    global_bits: int = 8,
    max_steps: int = 100_000_000,
) -> Tuple[ProfileData, RunResult]:
    """Run the program once and fold its trace into pattern tables."""
    trace, result = trace_program(program, args, input_values, max_steps)
    return ProfileData.from_trace(trace, local_bits, global_bits), result
