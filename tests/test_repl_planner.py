"""ReplicationPlanner tests: option construction and Table 5 queries."""

from repro.cfg import BranchClass
from repro.ir import BranchSite
from repro.profiling import ProfileData, profile_program, trace_program
from repro.replication import ReplicationPlanner
from repro.statemachines import CorrelatedMachine, PredictionMachine


def planner_for(program, args, max_states=6):
    profile, _ = profile_program(program.copy(), args)
    return ReplicationPlanner(program, profile, max_states)


class TestPlanConstruction:
    def test_every_executed_branch_planned(self, alternating_loop):
        planner = planner_for(alternating_loop, [100])
        assert set(planner.plans) == {
            BranchSite("main", "loop"),
            BranchSite("main", "body"),
        }

    def test_alternating_branch_improvable(self, alternating_loop):
        planner = planner_for(alternating_loop, [100])
        plan = planner.plans[BranchSite("main", "body")]
        assert plan.improvable
        option = plan.best_option(2)
        assert option is not None
        assert option.correct > plan.profile_correct

    def test_options_strictly_improve(self, correlated_branches):
        planner = planner_for(correlated_branches, [100])
        for plan in planner.plans.values():
            correct_values = [o.correct for o in plan.options]
            assert correct_values == sorted(set(correct_values))

    def test_option_families_match_machines(self, correlated_branches):
        planner = planner_for(correlated_branches, [100])
        for plan in planner.plans.values():
            for option in plan.options:
                machine = option.scored.machine
                if option.family == "correlated":
                    assert isinstance(machine, CorrelatedMachine)
                else:
                    assert isinstance(machine, PredictionMachine)

    def test_loop_plan_metadata(self, alternating_loop):
        planner = planner_for(alternating_loop, [100])
        plan = planner.plans[BranchSite("main", "body")]
        assert plan.loop_key == ("main", "loop")
        assert plan.loop_size > 0

    def test_non_loop_branch_gets_correlated_only(self, recursive_sum):
        planner = planner_for(recursive_sum, [30])
        plan = planner.plans[BranchSite("sum", "entry")]
        assert plan.info.kind is BranchClass.NON_LOOP
        for option in plan.options:
            assert option.family == "correlated"

    def test_correlated_chosen_for_correlated_loop_branch(
        self, correlated_branches
    ):
        # The `second` branch is perfectly determined by the path
        # history; the correlated family should beat local history.
        planner = planner_for(correlated_branches, [100])
        plan = planner.plans[BranchSite("main", "second")]
        best = plan.best_option(4)
        assert best is not None
        # either family may win at equal accuracy; accuracy must be ~perfect
        assert best.correct >= plan.executions - 2


class TestQueries:
    def test_best_misprediction_monotone(self, correlated_branches):
        planner = planner_for(correlated_branches, [100])
        rates = [planner.best_misprediction_rate(n) for n in range(2, 7)]
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 1e-12

    def test_best_never_worse_than_profile(self, alternating_loop):
        planner = planner_for(alternating_loop, [100])
        profile_rate = planner.profile_mispredictions() / planner.total_executions()
        assert planner.best_misprediction_rate(6) <= profile_rate

    def test_improved_branch_count(self, alternating_loop):
        planner = planner_for(alternating_loop, [100])
        improvable = planner.improvable_plans()
        assert len(improvable) >= 1
        assert all(plan.improvable for plan in improvable)

    def test_total_executions_matches_trace(self, alternating_loop):
        trace, _ = trace_program(alternating_loop.copy(), [100])
        profile = ProfileData.from_trace(trace)
        planner = ReplicationPlanner(alternating_loop, profile)
        assert planner.total_executions() == len(trace)
