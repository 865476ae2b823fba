"""Frame-local path-history collection tests.

The key property: path history equals the decisions along the CFG path
in the same activation, and crucially does NOT see callee branches —
unlike raw global history.
"""

from repro.ir import BranchSite, parse_program
from repro.profiling import ProfileData, instrumented_run, trace_program

CALLS_BETWEEN = """
func noisy() {
entry:
  i = move 0
head:
  br lt i, 3 ? body : done
body:
  i = add i, 1
  jump head
done:
  ret i
}

func main(n) {
entry:
  k = move 0
loop:
  br lt k, n ? body : finish
body:
  parity = mod k, 2
  br eq parity, 0 ? even : odd
even:
  x = call noisy()
  jump second
odd:
  y = call noisy()
  jump second
second:
  br eq parity, 0 ? e2 : o2
e2:
  jump cont
o2:
  jump cont
cont:
  k = add k, 1
  jump loop
finish:
  ret k
}
"""


def test_path_history_skips_callee_branches():
    program = parse_program(CALLS_BETWEEN)
    _, tables, _ = instrumented_run(program, [40], history_bits=4)
    second = tables[BranchSite("main", "second")]
    # The most recent frame-local decision before `second` is the
    # `body` branch of the same iteration; despite the noisy() call in
    # between, the low history bit determines the outcome exactly.
    for pattern, (not_taken, taken) in second.counts.items():
        assert not_taken == 0 or taken == 0


def test_global_history_is_polluted_by_callee():
    program = parse_program(CALLS_BETWEEN)
    trace, _ = trace_program(program, [40])
    profile = ProfileData.from_trace(trace, global_bits=1)
    second = profile.global_tables[BranchSite("main", "second")]
    # With 1 bit of raw global history, the most recent branch is the
    # callee's exit branch (always the same direction), so the history
    # cannot separate even from odd iterations.
    mixed = [
        entry for entry in second.counts.values() if entry[0] and entry[1]
    ]
    assert mixed, "global history should be uninformative here"


def test_correlation_table_prefers_path_tables():
    program = parse_program(CALLS_BETWEEN)
    trace, _ = trace_program(program, [40])
    profile = ProfileData.from_trace(trace)
    site = BranchSite("main", "second")
    assert profile.correlation_table(site) is profile.global_tables[site]
    _, tables, _ = instrumented_run(program, [40], history_bits=8)
    profile.attach_path_tables(tables)
    assert profile.correlation_table(site) is tables[site]


def test_new_frames_start_with_empty_history():
    program = parse_program(CALLS_BETWEEN)
    _, tables, _ = instrumented_run(program, [10], history_bits=8)
    head = tables[BranchSite("noisy", "head")]
    # Every call to noisy() starts a fresh frame: the first execution of
    # `head` in each call sees history 0.
    assert 0 in head.counts
    zero_entry = head.counts[0]
    assert zero_entry[0] + zero_entry[1] >= 10  # one per call at least


def test_planner_rejects_call_polluted_correlation():
    from repro.replication import ReplicationPlanner

    program = parse_program(CALLS_BETWEEN)
    trace, tables, _ = instrumented_run(program, [60], history_bits=8)
    profile = ProfileData.from_trace(trace)
    profile.attach_path_tables(tables)
    planner = ReplicationPlanner(program, profile, max_states=4)
    plan = planner.plans[BranchSite("main", "second")]
    best = plan.best_option(4)
    # With honest path tables the branch IS improvable (it correlates
    # with the body branch along the CFG path).
    assert best is not None
    assert best.correct >= plan.executions - 2
