"""Per-branch strategy selection (Section 5).

For every executed branch the planner computes the best state machine
of each size for the branch's class — intra-loop, loop-exit or
correlated — together with the code-size cost of realising it by
replication.  From these plans it answers:

* Table 5's question — the best achievable misprediction rate with at
  most *n* states per branch, ignoring code size;
* the trade-off curve's question — which (branch, machine) upgrade buys
  the most correct predictions per added instruction (see
  :mod:`repro.replication.tradeoff`).

Correlated machines are trained only on the profile's path tables:
frame-local path history, which is what tail duplication can encode.
Raw global history also sees callee branches, which no intraprocedural
transform can track, so the planner never reads it.  A branch without
a path table gets no correlated machine; a profile built from a trace
alone (empty ``path_tables``) therefore plans loop machines only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cfg import BranchClass, BranchInfo, classify_branches
from ..ir import BranchSite, Program
from ..obs import OBS
from ..profiling import ProfileData
from ..statemachines import (
    CorrelatedMachine,
    ScoredMachine,
    best_intra_machine,
    best_loop_exit_machine,
    correlated_machine_options,
    minimize_machine,
    node_counts,
)
from .tail_duplicate import estimate_duplication_cost


@dataclass
class PlanOption:
    """One candidate machine for a branch.

    ``family`` is ``"loop"`` (realised by loop replication — cost
    multiplies with other improved branches of the same loop) or
    ``"correlated"`` (realised by tail duplication — cost is additive).
    """

    n_states: int
    scored: ScoredMachine
    extra_size: int
    family: str = "loop"

    @property
    def correct(self) -> int:
        return self.scored.correct


@dataclass
class BranchPlan:
    """Everything the planner knows about one branch."""

    site: BranchSite
    info: BranchInfo
    executions: int
    profile_correct: int
    options: List[PlanOption] = field(default_factory=list)
    loop_key: Optional[Tuple[str, str]] = None
    loop_size: int = 0

    def best_option(self, max_states: int) -> Optional[PlanOption]:
        """The most accurate option with at most *max_states* states."""
        best: Optional[PlanOption] = None
        for option in self.options:
            if option.n_states > max_states:
                continue
            if best is None or option.correct > best.correct:
                best = option
        return best

    def best_correct(self, max_states: int) -> int:
        option = self.best_option(max_states)
        if option is None:
            return self.profile_correct
        return max(self.profile_correct, option.correct)

    @property
    def improvable(self) -> bool:
        """True when some machine beats plain profile prediction."""
        return any(option.correct > self.profile_correct for option in self.options)


class ReplicationPlanner:
    """Builds and queries per-branch replication plans."""

    def __init__(
        self,
        program: Program,
        profile: ProfileData,
        max_states: int = 10,
    ) -> None:
        self.program = program
        self.profile = profile
        self.max_states = max_states
        self.infos = classify_branches(program)
        self.plans: Dict[BranchSite, BranchPlan] = {}
        self._options_considered = 0
        with OBS.span(
            "replication.plan", branches=len(profile.totals)
        ) as span:
            for site, counts in profile.totals.items():
                info = self.infos.get(site)
                if info is None:
                    continue  # branch exists in the trace but not the program
                plan = BranchPlan(
                    site=site,
                    info=info,
                    executions=counts[0] + counts[1],
                    profile_correct=max(counts),
                )
                self._fill_options(plan)
                self.plans[site] = plan
            options = sum(len(plan.options) for plan in self.plans.values())
            span.set(planned=len(self.plans), options=options)
        OBS.add("replication.plans")
        OBS.add("replication.options_considered", self._options_considered)
        OBS.add("replication.options_kept", options)

    # -- plan construction ---------------------------------------------------

    def _fill_options(self, plan: BranchPlan) -> None:
        """Collect strictly-improving options for *plan*.

        Following Section 5, correlated machines are computed for
        *every* branch with a path table; loop branches additionally get
        their intra-loop or loop-exit machines, and per size the more
        accurate family wins ("the best available strategy for each
        branch is chosen").
        """
        site = plan.site
        info = plan.info
        function = self.program.function(site.function)

        path_table = self.profile.path_tables.get(site)
        correlated = (
            correlated_machine_options(path_table, self.max_states)
            if path_table is not None
            else []
        )

        loop = info.loop
        if loop is not None:
            plan.loop_key = (site.function, loop.header)
            plan.loop_size = sum(
                function.block(label).size() for label in loop.body
            )
        local_table = self.profile.local[site]
        # Every budget searches the same table: count its nodes once.
        local_nodes = (
            node_counts(local_table)
            if info.kind in (BranchClass.INTRA_LOOP, BranchClass.LOOP_EXIT)
            else None
        )
        duplication_costs: Dict[int, int] = {}

        for n_states in range(2, self.max_states + 1):
            candidates: List[Tuple[ScoredMachine, int]] = []
            if correlated:
                corr = correlated[n_states - 1]
                if corr.machine.paths:
                    depth = max(p[1] for p in corr.machine.paths)
                    if depth not in duplication_costs:
                        duplication_costs[depth] = estimate_duplication_cost(
                            function, site.block, depth
                        )
                    candidates.append((corr, duplication_costs[depth]))
            if info.kind is BranchClass.INTRA_LOOP:
                scored = best_intra_machine(local_table, n_states, nodes=local_nodes)
            elif info.kind is BranchClass.LOOP_EXIT:
                scored = best_loop_exit_machine(
                    local_table,
                    n_states,
                    exit_on_taken=info.taken_exits,
                    nodes=local_nodes,
                )
            else:
                scored = None
            if scored is not None and scored.machine.n_states > 1:
                # Minimisation never changes behaviour, only replication
                # cost — equal-prediction states would be copied for
                # nothing.
                minimized = minimize_machine(scored.machine)
                scored = ScoredMachine(minimized, scored.correct, scored.total)
                extra = (minimized.n_states - 1) * plan.loop_size
                candidates.append((scored, extra))
            self._options_considered += len(candidates)
            best: Optional[Tuple[ScoredMachine, int]] = None
            for candidate in candidates:
                if best is None or candidate[0].correct > best[0].correct:
                    best = candidate
            if best is None or best[0].correct <= plan.best_correct(n_states):
                continue
            family = (
                "correlated"
                if isinstance(best[0].machine, CorrelatedMachine)
                else "loop"
            )
            plan.options.append(PlanOption(n_states, best[0], best[1], family))

    # -- queries ----------------------------------------------------------------

    def total_executions(self) -> int:
        return sum(plan.executions for plan in self.plans.values())

    def profile_mispredictions(self) -> int:
        return sum(
            plan.executions - plan.profile_correct for plan in self.plans.values()
        )

    def best_misprediction_rate(self, max_states: int) -> float:
        """Table 5: best achievable rate with ≤ *max_states* states per
        branch, ignoring the effect on program size."""
        total = self.total_executions()
        if not total:
            return 0.0
        correct = sum(plan.best_correct(max_states) for plan in self.plans.values())
        return (total - correct) / total

    def improvable_plans(self) -> List[BranchPlan]:
        return [plan for plan in self.plans.values() if plan.improvable]

    def picks(self) -> List[Tuple[BranchPlan, PlanOption]]:
        """Each improvable plan with its best option, in plan order.
        ``(plan.site, option.scored.machine)`` is the selection
        :func:`~repro.replication.apply_replication` takes."""
        return [
            (plan, plan.best_option(self.max_states))
            for plan in self.improvable_plans()
        ]
