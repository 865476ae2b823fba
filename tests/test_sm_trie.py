"""Suffix-trie enumeration tests."""

import pytest

from repro.statemachines import (
    LEAF,
    analyze_shape,
    shape_depth,
    shape_leaves,
    shapes_with_leaves,
    valid_shapes,
)


def catalan(n: int) -> int:
    result = 1
    for k in range(n):
        result = result * 2 * (2 * k + 1) // (k + 2)
    return result


class TestEnumeration:
    def test_counts_are_catalan(self):
        for leaves in range(1, 9):
            assert len(shapes_with_leaves(leaves)) == catalan(leaves - 1)

    def test_single_leaf(self):
        assert shapes_with_leaves(1) == (LEAF,)

    def test_two_leaves(self):
        assert shapes_with_leaves(2) == ((LEAF, LEAF),)

    def test_zero_leaves(self):
        assert shapes_with_leaves(0) == ()

    def test_leaves_partition_histories(self):
        # For every shape, every 2^depth history must match exactly one
        # leaf (by its low bits).
        for shape in shapes_with_leaves(5):
            leaves = shape_leaves(shape)
            depth = shape_depth(shape)
            for history in range(1 << depth):
                matches = [
                    (v, l)
                    for (v, l) in leaves
                    if (history & ((1 << l) - 1)) == v
                ]
                assert len(matches) == 1


class TestLeafPatterns:
    def test_two_leaf_patterns(self):
        assert shape_leaves((LEAF, LEAF)) == [(0, 1), (1, 1)]

    def test_comb_patterns(self):
        comb = (LEAF, (LEAF, LEAF))  # 0 | 10 | 11 in recent-first bits
        assert shape_leaves(comb) == [(0, 1), (0b01, 2), (0b11, 2)]

    def test_depth(self):
        assert shape_depth(LEAF) == 0
        assert shape_depth((LEAF, LEAF)) == 1
        assert shape_depth((LEAF, (LEAF, (LEAF, LEAF)))) == 3


class TestTransitions:
    def test_two_state_machine_transitions(self):
        info = analyze_shape((LEAF, LEAF))
        assert info is not None
        # From either state, outcome b leads to state for pattern (b, 1).
        assert info.transitions[0] == (0, 1)
        assert info.transitions[1] == (0, 1)
        assert info.initial == 0

    def test_underdetermined_shape_rejected(self):
        # Leaves {0, 11, 101, 1000, 1001} (recent-first): from state "0"
        # on outcome 1 the known bits "10" end at an internal node.
        shape = (
            LEAF,
            (
                ((( LEAF, LEAF), LEAF), LEAF),
            ),
        )
        # Build explicitly: root = (leaf0, node1); node1 = (node10, leaf11);
        # node10 = (node100, leaf101); node100 = (leaf1000, leaf1001)
        node100 = (LEAF, LEAF)
        node10 = (node100, LEAF)
        node1 = (node10, LEAF)
        shape = (LEAF, node1)
        assert analyze_shape(shape) is None

    def test_all_analyzed_shapes_have_total_transitions(self):
        for info in valid_shapes(4, 9, require_connected=False):
            for row in info.transitions:
                assert 0 <= row[0] < info.n_states
                assert 0 <= row[1] < info.n_states

    def test_initial_state_matches_zero_history(self):
        for info in valid_shapes(5, 9, require_connected=False):
            value, length = info.leaves[info.initial]
            assert value == 0  # the all-zero history leaf


class TestValidShapes:
    def test_validity_filtering_reduces_count(self):
        assert len(valid_shapes(6, 9, False)) <= len(shapes_with_leaves(6))
        # The planner's largest budget still leaves a real search space.
        assert len(valid_shapes(10, 9)) > 50

    def test_connectivity_filtering_reduces_further(self):
        loose = len(valid_shapes(6, 9, require_connected=False))
        strict = len(valid_shapes(6, 9, require_connected=True))
        assert strict <= loose

    def test_depth_limit(self):
        shallow = valid_shapes(5, 2, require_connected=False)
        assert all(info.depth <= 2 for info in shallow)

    def test_caching_returns_same_object(self):
        assert valid_shapes(4, 9) is valid_shapes(4, 9)
