"""Trace collection: run an instrumented program and record its branches.

This is the reproduction of the paper's tracing tool.  The paper
inserts trace code into the assembly source; our interpreter's
generated code appends every branch event to a flat log
(:class:`~repro.interp.machine.BranchLog`), and this module folds the
log into a trace after the run — the resulting event stream (branch
number + direction) is identical in content.  :func:`instrumented_run`
is the one place the interpreter runs to profile; the other entry
points here are views of its result.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from typing import Dict, Sequence, Tuple

from ..interp import Machine, RunResult
from ..ir import BranchSite, Program
from .columns import pack_bits
from .patterns import PatternTable, ProfileData
from .trace import PackedDirections, Trace

#: The direction (low bit) of each one-byte event code.
_DIRECTION = bytes(code & 1 for code in range(256))


def _low_bytes(view: memoryview) -> memoryview:
    """The least significant byte of every item, as a strided view."""
    size = view.itemsize
    return view.cast("B")[0 if sys.byteorder == "little" else size - 1 :: size]


def _site_ids(codes, interned: Dict[int, int]) -> array:
    """The trace's site-id column: the interned site of every event code.
    One-byte codes are mapped by ``bytes.translate`` and copied into the
    column's low bytes."""
    if type(codes) is not bytearray:
        return array("i", map(interned.__getitem__, codes))
    ids = array("i", [0]) * len(codes)
    with memoryview(ids) as view:
        _low_bytes(view)[:] = codes.translate(
            bytes(interned.get(code, 0) for code in range(256))
        )
    return ids


def instrumented_run(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    history_bits: int = 0,
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

    The run's branch log is folded in bulk: sites are interned in
    first-event order, and the tables count each ``(code, history)``
    pair once, in first-event order, so every dict comes out in the
    order a per-event recorder would have built it.
    """
    machine = Machine(
        program, input_values, track_history_bits=history_bits, log_branches=True
    )
    result = machine.run(*args)
    log = machine.branch_log
    codes, history = log.codes, log.history
    first = dict.fromkeys(codes)
    sites = log.sites(first)
    trace = Trace()
    interned = {code: trace.site_id(sites[code]) for code in first}
    with memoryview(codes) as view:
        directions = _low_bytes(view).tobytes().translate(_DIRECTION)
    trace.directions = PackedDirections.from_packed(pack_bits(directions), len(codes))
    trace.site_ids = _site_ids(codes, interned)
    tables: Dict[BranchSite, PatternTable] = {}
    if history is not None:
        for (code, pattern), count in Counter(zip(codes, history)).items():
            site = sites[code]
            table = tables.get(site)
            if table is None:
                table = tables[site] = PatternTable(history_bits)
            entry = table.counts.get(pattern)
            if entry is None:
                entry = table.counts[pattern] = [0, 0]
            entry[code & 1] += count
    return trace, tables, result


def trace_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
) -> Tuple[Trace, RunResult]:
    """Execute *program* and collect its branch trace."""
    trace, _, result = instrumented_run(program, args, input_values)
    return trace, result


def profile_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    local_bits: int = 9,
    global_bits: int = 8,
) -> Tuple[ProfileData, RunResult]:
    """Run the program once and fold its trace into pattern tables.

    The profile carries the run's frame-local path tables at depth
    *global_bits*, as :func:`repro.workloads.get_profile`'s does: the
    planner trains correlated machines on nothing else.
    """
    trace, tables, result = instrumented_run(
        program, args, input_values, history_bits=global_bits
    )
    profile = ProfileData.from_trace(trace, local_bits, global_bits)
    profile.path_tables = tables
    return profile, result
