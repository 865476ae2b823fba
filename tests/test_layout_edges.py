"""Edge-profile tests: exact counts from a run's transfer log."""

from repro.cfg import CFG
from repro.layout import EdgeProfile, edge_profiles, run_edges


def run_profiles(program, args):
    return edge_profiles(program, run_edges(program, args)[0])


def test_exact_edge_counts(alternating_loop):
    profiles = run_profiles(alternating_loop, [10])
    main = profiles["main"]
    # loop -> body taken 10 times, loop -> done once.
    assert main.count("loop", "body") == 10
    assert main.count("loop", "done") == 1
    # body alternates between odd and even.
    assert main.count("body", "odd") == 5
    assert main.count("body", "even") == 5
    # entry jumps into the loop once.
    assert main.count("entry", "loop") == 1
    # cont closes every iteration.
    assert main.count("cont", "loop") == 10


def test_exact_counts_across_functions(recursive_sum):
    profiles = run_profiles(recursive_sum, [5])
    assert profiles["sum"].count("entry", "rec") == 5
    assert profiles["sum"].count("entry", "base") == 1


def test_block_frequency(alternating_loop):
    profiles = run_profiles(alternating_loop, [10])
    cfg = CFG.from_function(alternating_loop.main_function())
    assert profiles["main"].block_frequency("body", cfg) == 10
    assert profiles["main"].block_frequency("done", cfg) == 1


def test_hot_edges_sorted(alternating_loop):
    profiles = run_profiles(alternating_loop, [50])
    hot = profiles["main"].hot_edges()
    counts = [count for _, count in hot]
    assert counts == sorted(counts, reverse=True)


def test_profile_total(alternating_loop):
    profiles = run_profiles(alternating_loop, [10])
    # Every executed control transfer is recorded.
    assert profiles["main"].total() > 30


def test_empty_profile():
    profile = EdgeProfile("f")
    assert profile.count("a", "b") == 0
    assert profile.total() == 0
    assert profile.hot_edges() == []
