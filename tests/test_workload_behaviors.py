"""Per-workload behavioural checks: each stand-in must exhibit the
branch-behaviour class DESIGN.md claims for it."""

import pytest

from repro.cfg import BranchClass, classify_branches
from repro.ir import BranchSite
from repro.predictors import (
    CorrelationPredictor,
    LoopPredictor,
    ProfilePredictor,
    evaluate,
)
from repro.replication import ReplicationPlanner
from repro.workloads import get_profile, get_program, get_trace


class TestGhostview:
    """Mode-flag correlation: paint branches follow setter commands."""

    def test_paint_branch_improvable(self):
        planner = ReplicationPlanner(
            get_program("ghostview"), get_profile("ghostview", 1), 4
        )
        site = BranchSite("main", "paint_check")
        plan = planner.plans[site]
        assert plan.improvable
        best = plan.best_option(4)
        assert best.correct > plan.profile_correct

    def test_segment_loop_is_loop_exit(self):
        infos = classify_branches(get_program("ghostview"))
        assert infos[BranchSite("main", "seg_head")].kind is BranchClass.LOOP_EXIT


class TestCompress:
    """Run structure: the RLE branch repeats its own recent history."""

    def test_rle_branch_loves_local_history(self):
        trace = get_trace("compress", 1)
        profile = get_profile("compress", 1)
        site = BranchSite("main", "rle")
        plain = evaluate(ProfilePredictor(profile), trace).per_site[site]
        history = evaluate(LoopPredictor(profile, 9), trace).per_site[site]
        assert history.mispredictions < plain.mispredictions


class TestCCompiler:
    """Markov token stream: dispatch correlates with the generator."""

    def test_dispatch_correlates(self):
        trace = get_trace("c-compiler", 1)
        profile = get_profile("c-compiler", 1)
        site = BranchSite("main", "dispatch")
        plain = evaluate(ProfilePredictor(profile), trace).per_site[site]
        corr = evaluate(CorrelationPredictor(profile, 8), trace).per_site[site]
        assert corr.mispredictions < plain.mispredictions


class TestDoduc:
    """Numeric kernel: counted loops, near-nothing to improve."""

    def test_not_improvable(self):
        planner = ReplicationPlanner(
            get_program("doduc"), get_profile("doduc", 1), 6
        )
        assert planner.improvable_plans() == []

    def test_loop_exits_dominate(self):
        trace = get_trace("doduc", 1)
        infos = classify_branches(get_program("doduc"))
        exits = sum(
            1
            for site, _ in trace
            if infos[site].kind is BranchClass.LOOP_EXIT
        )
        assert exits / len(trace) > 0.9


class TestAbalone:
    """Alpha-beta pruning: data-dominated, little history structure."""

    def test_pruning_branch_barely_improvable(self):
        planner = ReplicationPlanner(
            get_program("abalone"), get_profile("abalone", 1), 4
        )
        site = BranchSite("search", "improve")
        plan = planner.plans[site]
        if plan.improvable:
            best = plan.best_option(4)
            gain = (best.correct - plan.profile_correct) / plan.executions
            assert gain < 0.1  # single-digit percentage at best


class TestPredict:
    """Counter simulation: alternating sources give deep structure."""

    def test_best_rate_improves_substantially(self):
        planner = ReplicationPlanner(
            get_program("predict"), get_profile("predict", 1), 6
        )
        profile_rate = (
            planner.profile_mispredictions() / planner.total_executions()
        )
        best = planner.best_misprediction_rate(6)
        assert best < profile_rate - 0.05


class TestProlog:
    """Backtracking: recursion pollutes global history (path tables
    reject it), local history helps the clause loop a little."""

    def test_recursion_blocks_cfg_correlation(self):
        planner = ReplicationPlanner(
            get_program("prolog"), get_profile("prolog", 1), 4
        )
        site = BranchSite("solve", "unified")
        plan = planner.plans[site]
        for option in plan.options:
            if option.family == "correlated":
                gain = option.correct - plan.profile_correct
                assert gain <= plan.executions * 0.05


class TestScheduler:
    """Max-update scan: partially structured, moderate gains."""

    def test_scan_branch_present_and_hot(self):
        profile = get_profile("scheduler", 1)
        site = BranchSite("main", "scan_body")
        assert profile.executions(site) > 1000
