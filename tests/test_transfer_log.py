"""The interpreter's transfer log and its folds.

Both tiers append a code to :class:`~repro.interp.machine.TransferLog`
at every activation entry and control transfer.  ``edge_counts()``
folds it with one ``Counter``; the oracle here walks the decoded log one
transfer at a time.  The folds must agree exactly, dict order included.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import entered_blocks
from repro.interp import Machine
from repro.ir import parse_program
from repro.workloads import random_program

TIERS = ["cold", "hot"]


def walked_edge_counts(log):
    """``edge_counts()`` as a per-transfer walk of the decoded log."""
    decoded = log.decode(set(log.codes))
    counts = {}
    for code in log.codes:
        function, source, target = decoded[code]
        if source is not None:
            edge = (function, source, target)
            counts[edge] = counts.get(edge, 0) + 1
    return counts


@given(
    seed=st.integers(0, 500),
    arg=st.integers(0, 8),
    tier=st.sampled_from(TIERS),
)
@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_edge_counts_equal_a_walk_of_the_log(force_tier, seed, arg, tier):
    program = random_program(seed, helpers=seed % 3)
    force_tier(tier)
    for _ in range(2):  # the second hot run starts hot at activation entry
        machine = Machine(program, max_steps=2_000_000, log_transfers=True)
        machine.run(arg)
        log = machine.transfer_log
        assert list(log.edge_counts().items()) == list(walked_edge_counts(log).items())


def test_entries_and_transfers_decode_to_entered_blocks(recursive_sum):
    machine = Machine(recursive_sum, log_transfers=True)
    machine.run(1)
    log = machine.transfer_log
    assert log.entries == 2 * sum(len(f.blocks) for f in recursive_sum)
    assert entered_blocks(machine) == [
        ("main", "entry"),
        ("sum", "entry"), ("sum", "rec"),
        ("sum", "entry"), ("sum", "base"),
    ]
    assert [code >= log.entries for code in log.codes] == [True, True, False, True, False]


MISSING = "func main(n) {\nentry:\n  jump loop\nloop:\n  out n\n  jump next\nnext:\n  ret n\n}"


@pytest.mark.parametrize("tier", TIERS)
def test_a_transfer_to_a_missing_label_is_logged_before_the_key_error(force_tier, tier):
    program = parse_program(MISSING)
    del program.main_function().blocks["next"]
    force_tier(tier)
    for _ in range(2):  # the second hot run starts hot at activation entry
        machine = Machine(program, log_transfers=True)
        with pytest.raises(KeyError, match="next"):
            machine.run(4)
        assert entered_blocks(machine) == [("main", "entry"), ("main", "loop"), ("main", "next")]
        log = machine.transfer_log
        assert log.decode([log.codes[-1]])[log.codes[-1]] == ("main", "loop", "next")
