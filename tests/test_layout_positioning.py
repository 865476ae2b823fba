"""Chain layout and branch alignment tests."""

import pytest

from repro.interp import run_program
from repro.ir import IRError, parse_program, validate_program
from repro.layout import (
    align_branches,
    apply_layout,
    build_chains,
    layout_program,
    edge_profiles,
    order_blocks,
    rotate_program,
    run_edges,
    transfer_stats,
)
from repro.replication import ReplicationPlanner, annotate_profile_predictions, apply_replication
from repro.profiling import ProfileData, trace_program
from repro.workloads import BENCHMARK_NAMES, get_profile, get_program, get_workload


def prepared(program, args):
    trace, _ = trace_program(program.copy(), args)
    profile = ProfileData.from_trace(trace)
    return profile, edge_profiles(program, run_edges(program, args)[0])


def run_transfer_stats(program, args):
    return transfer_stats(program, *run_edges(program, args))


class TestChains:
    def test_hot_path_chained(self, alternating_loop):
        _, edges = prepared(alternating_loop, [100])
        chains = build_chains(alternating_loop.main_function(), edges["main"])
        by_member = {label: chain for chain in chains for label in chain}
        # The back edge cont->loop is among the hottest; they chain.
        chain = by_member["cont"]
        position = chain.index("cont")
        assert chain[position + 1] == "loop"

    def test_chains_partition_blocks(self, correlated_branches):
        _, edges = prepared(correlated_branches, [100])
        chains = build_chains(correlated_branches.main_function(), edges["main"])
        flat = [label for chain in chains for label in chain]
        assert sorted(flat) == sorted(correlated_branches.main_function().blocks)


class TestOrdering:
    def test_entry_first(self, alternating_loop):
        _, edges = prepared(alternating_loop, [100])
        order = order_blocks(alternating_loop.main_function(), edges["main"])
        assert order[0] == "entry"
        assert sorted(order) == sorted(alternating_loop.main_function().blocks)

    def test_apply_layout_reorders(self, alternating_loop):
        function = alternating_loop.main_function()
        _, edges = prepared(alternating_loop, [100])
        order = order_blocks(function, edges["main"])
        apply_layout(function, order)
        assert list(function.blocks) == order
        validate_program(alternating_loop)

    def test_apply_layout_validates_permutation(self, alternating_loop):
        function = alternating_loop.main_function()
        with pytest.raises(IRError):
            apply_layout(function, ["entry", "loop"])

    def test_apply_layout_requires_entry_first(self, alternating_loop):
        function = alternating_loop.main_function()
        order = list(function.blocks)
        order.remove("done")
        order.insert(0, "done")
        with pytest.raises(IRError):
            apply_layout(function, order)


class TestAlignment:
    def test_align_flips_predicted_taken(self, alternating_loop):
        trace, _ = trace_program(alternating_loop.copy(), [100])
        profile = ProfileData.from_trace(trace)
        annotate_profile_predictions(alternating_loop, profile)
        # The loop branch is predicted taken; alignment flips it.
        before = alternating_loop.main_function().block("loop").branch
        assert before.predict is True
        flipped = align_branches(alternating_loop.main_function())
        assert flipped >= 1
        after = alternating_loop.main_function().block("loop").branch
        assert after.predict is False
        assert after.op == "ge"  # lt negated

    def test_alignment_preserves_semantics(self, correlated_branches):
        expected = run_program(correlated_branches.copy(), [100]).value
        profile, edges = prepared(correlated_branches, [100])
        annotate_profile_predictions(correlated_branches, profile)
        layout_program(correlated_branches, edges)
        validate_program(correlated_branches)
        assert run_program(correlated_branches, [100]).value == expected

    def test_layout_reduces_taken_transfers(self, correlated_branches):
        args = [100]
        before = run_transfer_stats(correlated_branches.copy(), args)
        profile, edges = prepared(correlated_branches, args)
        work = correlated_branches.copy()
        annotate_profile_predictions(work, profile)
        layout_program(work, edges)
        after = run_transfer_stats(work, args)
        assert after.transfers == before.transfers
        assert after.taken_rate <= before.taken_rate

    def test_unannotated_branches_untouched(self, alternating_loop):
        flipped = align_branches(alternating_loop.main_function())
        assert flipped == 0


def test_rate_bounds(alternating_loop):
    stats = run_transfer_stats(alternating_loop.copy(), [10])
    assert 0.0 <= stats.taken_rate <= 1.0
    assert stats.transfers > 0


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_layout_keeps_a_runs_edges_and_steps(name):
    """Alignment flips branches and layout reorders blocks, so the
    alignment experiment folds a laid-out program's taken transfers
    from the run that profiled its layout."""
    program = get_program(name)
    args, inputs = get_workload(name).default_args(1)
    profile = get_profile(name, 1)
    planner = ReplicationPlanner(program, profile, 4)
    selections = [(plan.site, option.scored.machine) for plan, option in planner.picks()]
    for chosen in ([], selections):
        work = apply_replication(program, chosen, profile).program
        rotate_program(work)
        edges, steps = run_edges(work, args, inputs)
        assert layout_program(work, edge_profiles(work, edges)) > 0
        assert run_edges(work, args, inputs) == (edges, steps)
