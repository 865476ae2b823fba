"""One planning profile: every profile the planner reads carries the
path tables of its own run, whichever way it was built."""

import pytest

from repro.ir import format_program
from repro.profiling import load_profile, profile_program
from repro.replication import ReplicationPlanner
from repro.tools import main
from repro.workloads import BENCHMARK_NAMES, get_profile, get_program, get_workload

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
