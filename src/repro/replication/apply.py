"""Applying a replication plan to a program.

``apply_replication`` takes a list of (branch site, machine) selections
and produces a transformed copy of the program with every machine
realised by code replication.  Profile predictions are planted on all
branches first, so the copies inherit sensible annotations and the
transforms then overwrite the improved branches' copies with their
state predictions.

Every copy a transform makes keeps its original's label as
``BasicBlock.origin``, so each selection finds all current copies of
its branch with one lookup: the blocks of the site's function whose
origin is the site's label, in block order.  When several selections
touch the same loop, a later transform thereby reaches every surviving
copy the earlier ones produced — this is exactly the paper's
observation that "the code size is multiplied if more than one branch
in a loop should be improved".

Each function's CFG is built once, when a selection first touches the
function, and every transform keeps it current, so loop analysis and
unreachable-block removal never rebuild the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cfg import CFG, LoopForest
from ..ir import BranchSite, Program, validate_program
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
    cfgs: Dict[str, CFG] = {}

    for site, machine in selections:
        function = work.function(site.function)
        cfg = cfgs.get(function.name)
        if cfg is None:
            cfg = cfgs[function.name] = CFG.from_function(function)
        # Every current copy of the branch, found before this
        # selection's own transforms add more.
        copies = [block.label for block in function if block.origin == site.block]
        if isinstance(machine, CorrelatedMachine):
            for label in copies:
                if label in function.blocks:  # an earlier copy's transform may drop it
                    report.tail_results.append(
                        duplicate_correlated_branch(function, label, machine, cfg=cfg)
                    )
        else:
            # Copies of the same static branch living in one loop share
            # the machine, so they are transformed together.
            for loop, labels in _group_by_loop(cfg, copies):
                report.loop_results.append(
                    replicate_loop_branch(function, loop, labels, machine, cfg=cfg)
                )
        validate_program(work)

    report.size_after = work.size()
    return report


def _group_by_loop(cfg: CFG, labels: List[str]):
    """Group one function's branch copies by innermost loop."""
    forest = LoopForest(cfg)
    groups: Dict[str, Tuple[object, List[str]]] = {}
    for label in labels:
        loop = forest.loop_of(label)
        if loop is None:
            # Earlier replications can leave a copy in an irreducible
            # region natural-loop analysis cannot see; that copy keeps
            # its profile prediction.
            continue
        entry = groups.setdefault(loop.header, (loop, []))
        entry[1].append(label)
    # Replication can leave copies of one branch in nested loops;
    # transforming the outer loop would consume the inner copies, so
    # merge any group whose labels lie inside another group's (larger)
    # loop body.
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
    return list(groups.values())
