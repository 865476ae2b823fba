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

import operator
import sys
from array import array
from itertools import repeat
from typing import Dict, Iterable, Sequence, Tuple

from ..interp import Machine, RunResult
from ..ir import BranchSite, Program
from .columns import DIRECTION, low_bytes, pack_bits
from .patterns import LANE_TYPES, PatternTable, ProfileData, fold_keys
from .trace import Trace, _interned


def _path_keys(codes, history, history_bits: int) -> Tuple[Iterable[int], int]:
    """Per event, ``(code << shift) | history`` as one integer key, and
    the *shift*.

    The bytes of both buffers are copied into the lanes of one unsigned
    array, each event's history in its lane's low bytes.  A list
    history (over 64 bits) or lanes wider than 8 bytes are combined by
    ``map`` instead, at a shift of *history_bits*.
    """
    if type(history) is not list:
        with memoryview(codes) as code_view, memoryview(history) as history_view:
            high, low = code_view.itemsize, history_view.itemsize
            size = next((size for size in (2, 4, 8) if size >= high + low), None)
            if size is not None:
                keys = array(LANE_TYPES[size], [0]) * len(codes)
                little = sys.byteorder == "little"
                with memoryview(keys).cast("B") as lanes:
                    for view, width, start in (
                        (history_view, low, 0 if little else size - low),
                        (code_view, high, low if little else size - low - high),
                    ):
                        with view.cast("B") as source:
                            for byte in range(width):
                                lanes[start + byte :: size] = source[byte::width]
                return keys, 8 * low
    shifted = map(operator.lshift, codes, repeat(history_bits))
    return map(operator.or_, shifted, history), history_bits


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
    first-event order, and the tables count one integer key per event
    (:func:`_path_keys`) in first-event order, so every dict comes out
    in the order a per-event recorder would have built it.
    """
    machine = Machine(
        program, input_values, track_history_bits=history_bits, log_branches=True
    )
    result = machine.run(*args)
    log = machine.branch_log
    codes, history = log.codes, log.history
    sites = log.sites(dict.fromkeys(codes))
    tables: Dict[BranchSite, PatternTable] = {}
    if history is not None:
        block_sites = {code >> 1: site for code, site in sites.items()}
        keys, shift = _path_keys(codes, history, history_bits)
        for block, counts in fold_keys(keys, shift).items():
            tables[block_sites[block]] = PatternTable(history_bits, counts)
        del keys
    with memoryview(codes) as view:
        directions = low_bytes(view).tobytes().translate(DIRECTION)
    trace = Trace(*_interned(codes, sites), pack_bits(directions), len(codes))
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
