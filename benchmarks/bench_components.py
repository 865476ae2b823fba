"""Micro-benchmarks of the pipeline's building blocks.

These time the substrate, not a paper experiment: interpreter
throughput, trace compression, profile construction, machine search
and the replication transform itself.

Run:  pytest benchmarks/bench_components.py --benchmark-only
"""

from repro.ir import BranchSite
from repro.profiling import (
    ProfileData,
    trace_program,
    trace_to_bytes,
)
from repro.replication import apply_replication
from repro.statemachines import best_intra_machine, valid_shapes
from repro.workloads import get_profile, get_program, get_trace


def test_interpreter_throughput(benchmark):
    program = get_program("compress")
    result = benchmark(trace_program, program, (2000, 13579), ())
    trace, run = result
    assert run.steps > 10_000


def test_trace_compression(benchmark):
    trace = get_trace("ghostview", 1)
    blob = benchmark(trace_to_bytes, trace)
    assert len(blob) < len(trace)


def test_profile_construction(benchmark):
    trace = get_trace("predict", 1)
    profile = benchmark(ProfileData.from_trace, trace)
    assert profile.events == len(trace)


def test_machine_search(benchmark):
    profile = get_profile("predict", 1)
    site = max(profile.totals, key=lambda s: profile.executions(s))
    table = profile.local[site]
    scored = benchmark(best_intra_machine, table, 8)
    assert scored.correct >= max(table.total())


def test_planner_build(benchmark):
    """Every budget 2..10 for every branch: the planner's search work."""
    from repro.replication import ReplicationPlanner

    program = get_program("predict")
    profile = get_profile("predict", 1)
    planner = benchmark(ReplicationPlanner, program, profile, max_states=10)
    assert planner.improvable_plans()


def test_shape_enumeration(benchmark):
    valid_shapes.cache_clear()
    shapes = benchmark.pedantic(
        valid_shapes, args=(10, 9), rounds=1, iterations=1
    )
    assert len(shapes) > 50


def test_replication_transform(benchmark, bench_scale):
    from repro.replication import ReplicationPlanner

    program = get_program("ghostview")
    profile = get_profile("ghostview", bench_scale)
    planner = ReplicationPlanner(program, profile, max_states=4)
    selections = [
        (plan.site, plan.best_option(4).scored.machine)
        for plan in planner.improvable_plans()
    ]

    def transform():
        return apply_replication(program, selections, profile)

    report = benchmark(transform)
    assert report.size_factor >= 1.0
