"""One planning profile: every profile the planner reads carries the
path tables of its own run, whichever way it was built."""

import pytest

from repro.ir import format_program
from repro.profiling import ProfileData, load_profile, profile_program
from repro.replication import ReplicationPlanner, apply_replication, tradeoff_curve
from repro.service import handlers
from repro.service.state import ServiceConfig, ServiceState
from repro.tools import main
from repro.workloads import (
    BENCHMARK_NAMES,
    clear_memory_cache,
    get_profile,
    get_program,
    get_workload,
)

from conftest import planned_options


def tables(kind):
    return {site: (table.bits, table.counts) for site, table in kind.items()}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_profile_program_equals_get_profile(name):
    program = get_program(name)
    profile, _ = profile_program(program, *get_workload(name).seeded_args(1, 0))
    reference = get_profile(name, 1)
    assert profile.events == reference.events
    assert profile.totals == reference.totals
    assert tables(profile.local) == tables(reference.local)
    assert tables(profile.global_tables) == tables(reference.global_tables)
    assert tables(profile.path_tables) == tables(reference.path_tables)
    assert profile.path_tables
    assert planned_options(ReplicationPlanner(program, profile, 6)) == planned_options(
        ReplicationPlanner(program, reference, 6)
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_planning_never_builds_global_tables(name, monkeypatch):
    """A profile builds its global-history tables on their first read,
    and planning never reads them: a cold ``get_profile`` through the
    planner, the trade-off curve and ``apply_replication``, and a
    service ``POST /plan``, leave them unbuilt."""
    reads = []
    read = ProfileData.global_tables.fget
    monkeypatch.setattr(
        ProfileData, "global_tables", property(lambda self: reads.append(self) or read(self))
    )
    clear_memory_cache()
    program = get_program(name)
    planner = ReplicationPlanner(program, get_profile(name, 1), 6)
    tradeoff_curve(planner, max_size_factor=2.0)
    picks = [(plan.site, option.scored.machine) for plan, option in planner.picks()]
    apply_replication(program, picks, planner.profile)
    state = ServiceState(ServiceConfig())
    try:
        body = {"name": name, "seed_offset": 1}
        _, payload = handlers.dispatch(state, "POST", "/plan", body, proxy=False)
    finally:
        state.close()
    assert (payload["benchmark"], payload["seed_offset"]) == (name, 1)
    assert reads == []


def improving_lines(out):
    return [line for line in out.splitlines() if line.startswith("improving ")]


def test_a_saved_profile_plans_what_a_fresh_run_plans(tmp_path, capsys):
    """``profile`` then ``optimize --profile`` plans the selections of a
    fresh ``optimize``, and those of the workload's own planner."""
    ir = tmp_path / "abalone.ir"
    ir.write_text(format_program(get_program("abalone")))
    saved = tmp_path / "abalone.profile"
    args = ",".join(map(str, get_workload("abalone").seeded_args(1, 0)[0]))
    common = [str(ir), "--args", args]
    assert main(["profile", *common, "-o", str(saved)]) == 0
    capsys.readouterr()
    # The file carries the run's path tables: at 6 states they plan the
    # options the workload's own profile plans.
    program = get_program("abalone")
    reference = get_profile("abalone", 1)
    loaded = load_profile(str(saved))
    assert loaded.path_tables
    assert tables(loaded.path_tables) == tables(reference.path_tables)
    assert planned_options(ReplicationPlanner(program, loaded, 6)) == planned_options(
        ReplicationPlanner(program, reference, 6)
    )
    assert main(["optimize", *common, "--max-states", "4"]) == 0
    fresh = capsys.readouterr().out
    assert main(["optimize", *common, "--max-states", "4", "--profile", str(saved)]) == 0
    from_file = capsys.readouterr().out
    planner = ReplicationPlanner(program, reference, 4)
    expected = [
        f"improving {plan.site}: {option.family} machine, {option.n_states} states"
        for plan, option in planner.picks()
    ]
    assert improving_lines(fresh) == improving_lines(from_file) == expected
    # Global history would have planned a correlated machine for
    # search:move_body that buys nothing and grows the code.
    assert "code size: 46 -> 46" in fresh
