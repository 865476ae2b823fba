"""Searches that share one table's node counts give fresh-search results.

The planner counts a table's nodes once and hands them to every
budget's search; correlated selection scores candidates from the
entries they would take over.  Both must match the from-scratch
computation exactly, on random tables with many ties and nested paths.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.profiling import PatternTable
from repro.statemachines import (
    best_correlated_machine,
    best_intra_machine,
    best_loop_exit_machine,
    majority,
    node_counts,
)
from repro.statemachines.correlated import _GreedyPaths, _score_paths


@st.composite
def pattern_tables(draw, max_bits: int = 9) -> PatternTable:
    """Sparse tables with tiny counts: equal cells and equal node totals
    (ties) are common, and histories share suffixes (nested paths)."""
    bits = draw(st.integers(1, max_bits))
    histories = draw(
        st.lists(st.integers(0, (1 << bits) - 1), max_size=40, unique=True)
    )
    table = PatternTable(bits)
    for history in histories:
        table.counts[history] = [draw(st.integers(0, 3)), draw(st.integers(0, 3))]
    return table


@given(pattern_tables())
@settings(deadline=None, max_examples=60)
def test_shared_nodes_match_fresh_searches(table):
    nodes = node_counts(table)
    for budget in range(1, 11):
        assert best_intra_machine(table, budget, nodes=nodes) == best_intra_machine(
            table, budget
        )
        for exit_on_taken in (False, True):
            shared = best_loop_exit_machine(table, budget, exit_on_taken, nodes=nodes)
            assert shared == best_loop_exit_machine(table, budget, exit_on_taken)


def _candidates(table: PatternTable, limit: int, max_candidates: int = 64):
    """Candidate paths in the order ``best_correlated_machine`` uses."""
    ranked = [
        (pattern, counts)
        for pattern, counts in node_counts(table).items()
        if 1 <= pattern[1] <= limit
    ]
    ranked.sort(key=lambda item: -(item[1][0] + item[1][1]))
    return [pattern for pattern, _ in ranked[:max_candidates]]


def _recount_greedy(table: PatternTable, candidates, max_paths: int):
    """Greedy selection with a full recount per candidate."""
    default = majority(table.total())
    chosen = []
    best_correct = _score_paths(table, chosen, default)[0]
    while len(chosen) < max_paths:
        best_gain, best_pattern = 0, None
        for pattern in candidates:
            if pattern in chosen:
                continue
            gain = _score_paths(table, chosen + [pattern], default)[0] - best_correct
            if gain > best_gain:
                best_gain, best_pattern = gain, pattern
        if best_pattern is None:
            break
        chosen.append(best_pattern)
        best_correct += best_gain
    return chosen


@given(pattern_tables(max_bits=8), st.integers(1, 10))
@settings(deadline=None, max_examples=80)
def test_incremental_gains_equal_full_recounts(table, max_states):
    default = majority(table.total())
    candidates = _candidates(table, table.bits)
    greedy = _GreedyPaths(table, candidates)
    while len(greedy.paths) < max_states - 1:
        before = _score_paths(table, greedy.paths, default)[0]
        gains = {}
        for pattern in candidates:
            if pattern in greedy.paths:
                continue
            after = _score_paths(table, greedy.paths + [pattern], default)[0]
            gains[pattern] = greedy.gain(pattern)
            assert gains[pattern] == after - before
        best = max(gains.values(), default=0)
        if best <= 0:
            break
        greedy.add(next(p for p, gain in gains.items() if gain == best))

    scored = best_correlated_machine(table, max_states, max_path_length=table.bits)
    expected = _recount_greedy(table, candidates, max_states - 1)
    assert list(scored.machine.paths) == expected
    assert scored.correct == _score_paths(table, expected, default)[0]


@pytest.mark.parametrize(
    "search",
    [
        lambda table: best_intra_machine(table, 0),
        lambda table: best_loop_exit_machine(table, 0, exit_on_taken=False),
        lambda table: best_correlated_machine(table, 0),
    ],
    ids=["intra", "loop_exit", "correlated"],
)
def test_searches_reject_a_zero_state_budget(search):
    table = PatternTable(3)
    table.add(0b101, 1)
    with pytest.raises(ValueError, match="need at least one state"):
        search(table)
