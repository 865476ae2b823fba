"""Loop replication transform tests (Section 5, Figure 1)."""

import pytest

from repro.cfg import CFG, LoopForest
from repro.interp import run_program
from repro.ir import BranchSite, IRError, validate_program
from repro.profiling import ProfileData, trace_program
from repro.replication import replicate_loop_branch
from repro.statemachines import best_intra_machine, best_loop_exit_machine


def loop_of(program, label):
    function = program.main_function()
    forest = LoopForest(CFG.from_function(function))
    return function, forest.loop_of(label)


def alternator_machine(program, n_args=100):
    trace, _ = trace_program(program, [n_args])
    profile = ProfileData.from_trace(trace)
    return best_intra_machine(profile.local[BranchSite("main", "body")], 2)


class TestFigure1:
    def test_semantics_preserved(self, alternating_loop):
        expected = run_program(alternating_loop.copy(), [100]).value
        scored = alternator_machine(alternating_loop)
        function, loop = loop_of(alternating_loop, "body")
        work = alternating_loop.copy()
        replicate_loop_branch(
            work.main_function(),
            LoopForest(CFG.from_function(work.main_function())).loop_of("body"),
            "body",
            scored.machine,
        )
        validate_program(work)
        assert run_program(work, [100]).value == expected

    def test_unreachable_copies_discarded(self, alternating_loop):
        scored = alternator_machine(alternating_loop)
        work = alternating_loop.copy()
        result = replicate_loop_branch(
            work.main_function(),
            LoopForest(CFG.from_function(work.main_function())).loop_of("body"),
            "body",
            scored.machine,
        )
        # The whole original loop body dies, plus — Figure 1's "2b" and
        # "3a" — one odd and one even *copy*.
        removed_copies = {l.split("@")[0] for l in result.removed if "@" in l}
        assert removed_copies == {"odd", "even"}
        removed_originals = {l for l in result.removed if "@" not in l}
        assert removed_originals == {"loop", "body", "odd", "even", "cont"}

    def test_size_accounting(self, alternating_loop):
        scored = alternator_machine(alternating_loop)
        work = alternating_loop.copy()
        result = replicate_loop_branch(
            work.main_function(),
            LoopForest(CFG.from_function(work.main_function())).loop_of("body"),
            "body",
            scored.machine,
        )
        assert result.size_after == work.size()
        assert result.size_after > result.size_before

    def test_predictions_planted_per_state(self, alternating_loop):
        scored = alternator_machine(alternating_loop)
        work = alternating_loop.copy()
        result = replicate_loop_branch(
            work.main_function(),
            LoopForest(CFG.from_function(work.main_function())).loop_of("body"),
            "body",
            scored.machine,
        )
        predictions = set()
        for state_index, label in result.copies["body"].items():
            branch = work.main_function().block(label).branch
            assert branch.predict is not None
            predictions.add(branch.predict)
        # The alternating branch gets both directions across its copies.
        assert predictions == {True, False}

    def test_surviving_sites(self, alternating_loop):
        scored = alternator_machine(alternating_loop)
        work = alternating_loop.copy()
        result = replicate_loop_branch(
            work.main_function(),
            LoopForest(CFG.from_function(work.main_function())).loop_of("body"),
            "body",
            scored.machine,
        )
        labels = list(result.copies["body"].values())
        assert len(labels) == 2
        for label in labels:
            assert label in work.main_function().blocks


class TestLoopExitReplication:
    def test_fixed_trip_loop(self, fixed_trip_loop):
        expected = run_program(fixed_trip_loop.copy(), [50]).value
        trace, _ = trace_program(fixed_trip_loop.copy(), [50])
        profile = ProfileData.from_trace(trace)
        site = BranchSite("main", "inner_head")
        scored = best_loop_exit_machine(
            profile.local[site], 5, exit_on_taken=False
        )
        work = fixed_trip_loop.copy()
        function = work.main_function()
        forest = LoopForest(CFG.from_function(function))
        replicate_loop_branch(function, forest.loop_of("inner_head"), "inner_head", scored.machine)
        validate_program(work)
        assert run_program(work, [50]).value == expected

    def test_errors(self, alternating_loop):
        work = alternating_loop.copy()
        function = work.main_function()
        forest = LoopForest(CFG.from_function(function))
        loop = forest.loop_of("body")
        scored = alternator_machine(alternating_loop)
        with pytest.raises(IRError):
            replicate_loop_branch(function, loop, "done", scored.machine)
        with pytest.raises(IRError):
            replicate_loop_branch(function, loop, "cont", scored.machine)


class TestRepeatedReplication:
    def test_replicating_twice_still_correct(self, alternating_loop):
        expected = run_program(alternating_loop.copy(), [60]).value
        scored = alternator_machine(alternating_loop)
        work = alternating_loop.copy()
        function = work.main_function()
        forest = LoopForest(CFG.from_function(function))
        result = replicate_loop_branch(
            function, forest.loop_of("body"), "body", scored.machine
        )
        # Replicate one of the copies again (cascading transform).
        copy_label = next(iter(result.copies["body"].values()))
        forest = LoopForest(CFG.from_function(function))
        replicate_loop_branch(
            function, forest.loop_of(copy_label), copy_label, scored.machine
        )
        validate_program(work)
        assert run_program(work, [60]).value == expected
