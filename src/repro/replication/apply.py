"""Applying a replication plan to a program.

``apply_replication`` takes a list of (branch site, machine) selections
and produces a transformed copy of the program with every machine
realised by code replication.  Profile predictions are planted on all
branches first, so the copies inherit sensible annotations and the
transforms then overwrite the improved branches' copies with their
state predictions.

When several selections touch the same loop, later transforms are
cascaded onto every surviving copy the earlier ones produced — this is
exactly the paper's observation that "the code size is multiplied if
more than one branch in a loop should be improved".

Each function's CFG is built once, when a selection first touches the
function, and every transform keeps it current, so loop analysis and
unreachable-block removal never rebuild the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cfg import CFG, LoopForest
from ..ir import BranchSite, Function, Program, validate_program
from ..profiling import ProfileData
from ..statemachines import CorrelatedMachine, PredictionMachine
from .annotate import annotate_profile_predictions
from .loop_transform import LoopReplicationResult, replicate_loop_branch
from .tail_duplicate import TailDuplicationResult, duplicate_correlated_branch

Machine = Union[PredictionMachine, CorrelatedMachine]
Selection = Tuple[BranchSite, Machine]


@dataclass
class ReplicationReport:
    """Outcome of applying a plan."""

    program: Program
    size_before: int
    size_after: int
    loop_results: List[LoopReplicationResult] = field(default_factory=list)
    tail_results: List[TailDuplicationResult] = field(default_factory=list)

    @property
    def size_factor(self) -> float:
        return self.size_after / self.size_before if self.size_before else 1.0


def apply_replication(
    program: Program,
    selections: Sequence[Selection],
    profile: Optional[ProfileData] = None,
    validate: bool = True,
) -> ReplicationReport:
    """Return a transformed copy of *program* realising *selections*.

    The input program is not modified.  When *profile* is given, every
    branch is annotated with its profile prediction before the
    transforms run.
    """
    work = program.copy()
    size_before = work.size()
    if profile is not None:
        annotate_profile_predictions(work, profile)
    report = ReplicationReport(work, size_before, size_before)

    # Each pending selection tracks the current locations of its branch.
    tracked: List[List[BranchSite]] = [[site] for site, _ in selections]
    cfgs = _LiveCFGs()

    for index, (site, machine) in enumerate(selections):
        if isinstance(machine, CorrelatedMachine):
            for current in list(tracked[index]):
                result = _apply_correlated(work, cfgs, current, machine)
                if result is None:
                    continue
                report.tail_results.append(result)
                _cascade_tail(tracked, index, current, result)
        else:
            # Copies of the same static branch living in one loop share
            # the machine, so they are transformed together.
            for function_name, loop, labels in _group_by_loop(work, cfgs, tracked[index]):
                function = work.function(function_name)
                result = replicate_loop_branch(
                    function, loop, labels, machine, cfg=cfgs.of(function)
                )
                report.loop_results.append(result)
                _cascade_loop(
                    tracked, index, BranchSite(function_name, labels[0]), result
                )
        if validate:
            validate_program(work)

    report.size_after = work.size()
    return report


class _LiveCFGs(dict):
    """Function name -> that function's CFG, built on first use."""

    def of(self, function: Function) -> CFG:
        cfg = self.get(function.name)
        if cfg is None:
            cfg = self[function.name] = CFG.from_function(function)
        return cfg


def _group_by_loop(program: Program, cfgs: _LiveCFGs, sites: List[BranchSite]):
    """Group surviving branch copies by (function, innermost loop)."""
    by_function: Dict[str, List[str]] = {}
    for site in sites:
        function = program.function(site.function)
        if site.block in function.blocks:
            by_function.setdefault(site.function, []).append(site.block)
    for function_name, labels in by_function.items():
        function = program.function(function_name)
        forest = LoopForest(cfgs.of(function))
        groups: Dict[str, Tuple[object, List[str]]] = {}
        for label in labels:
            loop = forest.loop_of(label)
            if loop is None:
                # Earlier replications can leave a copy in an
                # irreducible region natural-loop analysis cannot see;
                # that copy keeps its profile prediction.
                continue
            entry = groups.setdefault(loop.header, (loop, []))
            entry[1].append(label)
        # Replication can leave copies of one branch in nested loops;
        # transforming the outer loop would consume the inner copies,
        # so merge any group whose labels lie inside another group's
        # (larger) loop body.
        merged = True
        while merged:
            merged = False
            for outer_header in list(groups):
                if outer_header not in groups:
                    continue
                outer_loop, outer_labels = groups[outer_header]
                for inner_header in list(groups):
                    if inner_header == outer_header or inner_header not in groups:
                        continue
                    inner_loop, inner_labels = groups[inner_header]
                    if len(inner_loop.body) <= len(outer_loop.body) and all(
                        label in outer_loop.body for label in inner_labels
                    ):
                        outer_labels.extend(inner_labels)
                        del groups[inner_header]
                        merged = True
        for loop, group_labels in groups.values():
            yield function_name, loop, group_labels


def _apply_correlated(
    program: Program, cfgs: _LiveCFGs, site: BranchSite, machine: CorrelatedMachine
) -> Optional[TailDuplicationResult]:
    function = program.function(site.function)
    if site.block not in function.blocks:
        return None
    return duplicate_correlated_branch(function, site.block, machine, cfg=cfgs.of(function))


def _cascade_loop(
    tracked: List[List[BranchSite]],
    applied_index: int,
    transformed: BranchSite,
    result: LoopReplicationResult,
) -> None:
    for later in range(applied_index + 1, len(tracked)):
        updated: List[BranchSite] = []
        for site in tracked[later]:
            mapping = (
                result.copies.get(site.block)
                if site.function == transformed.function
                else None
            )
            if mapping:
                updated.extend(
                    BranchSite(site.function, label) for label in mapping.values()
                )
            else:
                updated.append(site)
        tracked[later] = updated


def _cascade_tail(
    tracked: List[List[BranchSite]],
    applied_index: int,
    transformed: BranchSite,
    result: TailDuplicationResult,
) -> None:
    for later in range(applied_index + 1, len(tracked)):
        updated: List[BranchSite] = []
        for site in tracked[later]:
            labels = (
                result.block_copies.get(site.block)
                if site.function == transformed.function
                else None
            )
            updated.append(site)
            if labels:
                updated.extend(BranchSite(site.function, label) for label in labels)
        tracked[later] = updated
