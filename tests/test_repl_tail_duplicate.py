"""Tail-duplication transform tests for correlated branches."""

from repro.interp import run_program
from repro.ir import BranchSite, parse_program, validate_program
from repro.profiling import ProfileData, trace_program
from repro.replication import (
    duplicate_correlated_branch,
    estimate_duplication_cost,
)
from repro.statemachines import CorrelatedMachine, best_correlated_machine


def correlated_program():
    """The `second` branch repeats the decision of the `body` branch."""
    return parse_program(
        """
func main(n) {
entry:
  i = move 0
  acc = move 0
loop:
  br lt i, n ? body : done
body:
  parity = mod i, 2
  br eq parity, 0 ? even1 : odd1
even1:
  acc = add acc, 1
  jump second
odd1:
  acc = add acc, 2
  jump second
second:
  br eq parity, 0 ? even2 : odd2
even2:
  acc = add acc, 10
  jump cont
odd2:
  acc = add acc, 20
  jump cont
cont:
  i = add i, 1
  jump loop
done:
  out acc
  ret acc
}
"""
    )


def trained_machine(program, site_label="second"):
    trace, _ = trace_program(program.copy(), [100])
    profile = ProfileData.from_trace(trace)
    site = BranchSite("main", site_label)
    return best_correlated_machine(profile.global_tables[site], 3), profile


class TestDuplication:
    def test_semantics_preserved(self):
        program = correlated_program()
        expected = run_program(program.copy(), [100]).value
        scored, _ = trained_machine(program)
        work = program.copy()
        duplicate_correlated_branch(work.main_function(), "second", scored.machine)
        validate_program(work)
        assert run_program(work, [100]).value == expected

    def test_copies_get_distinct_predictions(self):
        program = correlated_program()
        scored, _ = trained_machine(program)
        assert scored.mispredictions == 0  # perfectly correlated
        work = program.copy()
        result = duplicate_correlated_branch(
            work.main_function(), "second", scored.machine
        )
        predictions = set()
        for label in set(result.copies.values()):
            branch = work.main_function().block(label).branch
            predictions.add(branch.predict)
        assert predictions == {True, False}

    def test_size_grows(self):
        program = correlated_program()
        scored, _ = trained_machine(program)
        work = program.copy()
        result = duplicate_correlated_branch(
            work.main_function(), "second", scored.machine
        )
        assert result.size_after > result.size_before

    def test_cost_estimate_matches_actual_growth(self):
        program = correlated_program()
        scored, _ = trained_machine(program)
        depth = max(length for _, length in scored.machine.paths)
        estimate = estimate_duplication_cost(
            program.main_function(), "second", depth
        )
        work = program.copy()
        result = duplicate_correlated_branch(work.main_function(), "second", scored.machine)
        actual_growth = result.size_after - result.size_before
        # The estimate is an upper bound: pruning may reclaim copies.
        assert actual_growth <= estimate

    def test_zero_depth_machine_annotates_only(self):
        program = correlated_program()
        machine = CorrelatedMachine((), (), fallback=True)
        work = program.copy()
        result = duplicate_correlated_branch(work.main_function(), "second", machine)
        assert result.size_after == result.size_before
        assert work.main_function().block("second").branch.predict is True

    def test_measured_misprediction_improves(self):
        from repro.replication import annotate_profile_predictions, measure_annotated

        program = correlated_program()
        scored, profile = trained_machine(program)

        baseline = program.copy()
        annotate_profile_predictions(baseline, profile)
        base = measure_annotated(baseline, [100])

        work = program.copy()
        annotate_profile_predictions(work, profile)
        duplicate_correlated_branch(work.main_function(), "second", scored.machine)
        improved = measure_annotated(work, [100])
        assert improved.mispredictions < base.mispredictions

    def test_paths_through_plain_blocks(self):
        # The decision is separated from the target by a join block.
        program = parse_program(
            """
func main(n) {
entry:
  i = move 0
  acc = move 0
loop:
  br lt i, n ? body : done
body:
  parity = mod i, 2
  br eq parity, 0 ? a : b
a:
  acc = add acc, 1
  jump gap
b:
  acc = add acc, 2
  jump gap
gap:
  acc = add acc, 0
  jump second
second:
  br eq parity, 0 ? c : d
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
        expected = run_program(program.copy(), [40]).value
        trace, _ = trace_program(program.copy(), [40])
        profile = ProfileData.from_trace(trace)
        site = BranchSite("main", "second")
        scored = best_correlated_machine(profile.global_tables[site], 3)
        work = program.copy()
        duplicate_correlated_branch(work.main_function(), "second", scored.machine)
        validate_program(work)
        assert run_program(work, [40]).value == expected
