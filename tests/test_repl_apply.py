"""apply_replication tests: plans realised end to end, with cascading."""

from repro.ir import BranchSite
from repro.interp import run_program
from repro.ir import validate_program
from repro.profiling import profile_program
from repro.replication import (
    ReplicationPlanner,
    apply_replication,
    measure_annotated,
)
from repro.statemachines import best_intra_machine, best_loop_exit_machine


def profile_of(program, args):
    return profile_program(program.copy(), args)[0]


class TestSingleSelection:
    def test_report_fields(self, alternating_loop):
        profile = profile_of(alternating_loop, [100])
        site = BranchSite("main", "body")
        scored = best_intra_machine(profile.local[site], 2)
        report = apply_replication(alternating_loop, [(site, scored.machine)], profile)
        assert report.size_factor > 1.0
        assert len(report.loop_results) == 1
        assert report.tail_results == []
        validate_program(report.program)

    def test_input_program_untouched(self, alternating_loop):
        size = alternating_loop.size()
        profile = profile_of(alternating_loop, [100])
        site = BranchSite("main", "body")
        scored = best_intra_machine(profile.local[site], 2)
        apply_replication(alternating_loop, [(site, scored.machine)], profile)
        assert alternating_loop.size() == size
        assert alternating_loop.main_function().block("body").branch.predict is None

    def test_measured_rate_matches_machine_score(self, alternating_loop):
        profile = profile_of(alternating_loop, [100])
        site = BranchSite("main", "body")
        scored = best_intra_machine(profile.local[site], 2)
        report = apply_replication(alternating_loop, [(site, scored.machine)], profile)
        measured = measure_annotated(report.program, [100])
        # The replicated program realises the machine: its mispredictions
        # on the body branch equal the machine's score (± warmup).
        predicted_wrong = scored.mispredictions
        body_wrong = sum(
            wrong
            for s, (_, wrong) in measured.per_site.items()
            if s.block.startswith("body")
        )
        assert abs(body_wrong - predicted_wrong) <= 9


class TestCascading:
    def test_two_branches_same_loop_multiply(self):
        from repro.ir import parse_program

        # Two alternating branches in the same loop (periods 2 and 4).
        program = parse_program(
            """
func main(n) {
entry:
  i = move 0
  acc = move 0
loop:
  br lt i, n ? first : done
first:
  p2 = mod i, 2
  br eq p2, 0 ? a : b
a:
  acc = add acc, 1
  jump second
b:
  acc = add acc, 2
  jump second
second:
  p4 = mod i, 4
  br lt p4, 2 ? c : d
c:
  acc = add acc, 10
  jump cont
d:
  acc = add acc, 20
  jump cont
cont:
  i = add i, 1
  jump loop
done:
  ret acc
}
"""
        )
        profile = profile_of(program, [64])
        first = BranchSite("main", "first")
        second = BranchSite("main", "second")
        m_first = best_intra_machine(profile.local[first], 2)
        m_second = best_intra_machine(profile.local[second], 4)
        assert m_first.machine.n_states == 2
        assert m_second.machine.n_states >= 3
        expected = run_program(program.copy(), [64]).value
        report = apply_replication(
            program, [(first, m_first.machine), (second, m_second.machine)], profile
        )
        validate_program(report.program)
        assert run_program(report.program, [64]).value == expected
        # The second machine is applied to all surviving copies the
        # first transform produced in ONE combined transform (they are
        # the same static branch and share the machine): 2 transforms.
        assert len(report.loop_results) == 2
        # Size multiplied: the loop was copied 2 x 4 times.
        assert report.size_factor > 4
        measured = measure_annotated(report.program, [64])
        baseline = measure_annotated(
            apply_replication(program, [], profile).program, [64]
        )
        assert measured.mispredictions < baseline.mispredictions / 2

    def test_inner_improvement_after_outer(self, fixed_trip_loop):
        profile = profile_of(fixed_trip_loop, [40])
        inner = BranchSite("main", "inner_head")
        inner_machine = best_loop_exit_machine(
            profile.local[inner], 5, exit_on_taken=False
        )
        report = apply_replication(
            fixed_trip_loop, [(inner, inner_machine.machine)], profile
        )
        measured = measure_annotated(report.program, [40])
        baseline = measure_annotated(
            apply_replication(fixed_trip_loop, [], profile).program, [40]
        )
        assert measured.mispredictions < baseline.mispredictions


class TestPlannerDriven:
    def test_apply_best_plan_of_each_workload_program(self, correlated_branches):
        profile = profile_of(correlated_branches, [100])
        planner = ReplicationPlanner(correlated_branches, profile, max_states=4)
        selections = [(plan.site, option.scored.machine) for plan, option in planner.picks()]
        assert selections
        expected = run_program(correlated_branches.copy(), [100]).value
        report = apply_replication(correlated_branches, selections, profile)
        validate_program(report.program)
        assert run_program(report.program, [100]).value == expected
        measured = measure_annotated(report.program, [100])
        baseline = measure_annotated(
            apply_replication(correlated_branches, [], profile).program, [100]
        )
        assert measured.misprediction_rate < baseline.misprediction_rate
