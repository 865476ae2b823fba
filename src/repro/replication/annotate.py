"""Planting and measuring semi-static prediction annotations.

After replication every conditional branch carries a ``predict`` bit.
``annotate_profile_predictions`` plants the plain profile prediction on
unannotated branches; ``measure_annotated`` runs the program and
``fold_mispredictions`` counts from its branch log how often the planted
bits are wrong — the end-to-end check that the replicated program
achieves the misprediction rate the state-machine scoring promised.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

from ..interp import Machine, RunResult
from ..interp.machine import BranchLog
from ..ir import BranchSite, Program
from ..profiling import ProfileData


def annotate_profile_predictions(
    program: Program, profile: ProfileData, default: bool = True
) -> int:
    """Set ``predict`` to the profile majority on every *unannotated*
    branch; returns the number of branches annotated.

    Branches the training run never executed get *default*.
    """
    count = 0
    for function in program:
        for block in function:
            branch = block.branch
            if branch is None or branch.predict is not None:
                continue
            site = BranchSite(function.name, block.label)
            bias = profile.bias(site)
            block.terminator = dataclasses.replace(
                branch, predict=default if bias is None else bias
            )
            count += 1
    return count


def clear_predictions(program: Program) -> None:
    """Remove all ``predict`` annotations."""
    for function in program:
        for block in function:
            branch = block.branch
            if branch is not None and branch.predict is not None:
                block.terminator = dataclasses.replace(branch, predict=None)


@dataclass
class AnnotatedMeasurement:
    """Misprediction measurement of an annotated program run.

    ``per_site`` maps every executed branch to ``(executions,
    mispredictions)``; ``per_origin`` folds those counts onto the site
    of the original block each copy came from (``BasicBlock.origin``),
    so a replicated program's counts line up with its original's.
    """

    events: int
    mispredictions: int
    per_site: Dict[BranchSite, tuple]
    per_origin: Dict[BranchSite, tuple]
    result: RunResult

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.events if self.events else 0.0


def measure_annotated(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    default: bool = True,
) -> AnnotatedMeasurement:
    """Run *program*, logging its branches, and score its planted
    ``predict`` bits with :func:`fold_mispredictions`."""
    machine = Machine(program, input_values, log_branches=True)
    result = machine.run(*args)
    return fold_mispredictions(machine.branch_log, result, default)


def fold_mispredictions(
    log: BranchLog, result: RunResult, default: bool = True
) -> AnnotatedMeasurement:
    """Score the planted ``predict`` bits of the program a finished run
    executed against its branch *log*; *result* is that run's.

    Unannotated branches are scored with *default*.  The log is counted
    once per event code (site and direction); the sites keep the order
    of their first events.
    """
    counts = Counter(log.codes)
    per_site: Dict[BranchSite, tuple] = {}
    origins: Dict[BranchSite, BranchSite] = {}
    for code, (name, block) in log.blocks(counts).items():
        count = counts[code]
        site = BranchSite(name, block.label)
        predict = block.terminator.predict
        if predict is None:
            predict = default
        executions, wrong = per_site.get(site, (0, 0))
        if predict is not bool(code & 1):
            wrong += count
        per_site[site] = (executions + count, wrong)
        origins[site] = BranchSite(name, block.origin)
    per_origin: Dict[BranchSite, tuple] = {}
    for site, (executions, wrong) in per_site.items():
        origin = origins[site]
        total, total_wrong = per_origin.get(origin, (0, 0))
        per_origin[origin] = (total + executions, total_wrong + wrong)
    mispredictions = sum(wrong for _, wrong in per_site.values())
    return AnnotatedMeasurement(len(log), mispredictions, per_site, per_origin, result)
