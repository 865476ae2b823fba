"""Trade-off curve tests (the figures' greedy walk)."""

from repro.ir import BranchSite, parse_program
from repro.profiling import profile_program
from repro.replication import ReplicationPlanner, tradeoff_curve


def planner_for(program, args, max_states=6):
    profile, _ = profile_program(program.copy(), args)
    return ReplicationPlanner(program, profile, max_states)


TWO_LOOPS = """
func main(n) {
entry:
  i = move 0
  acc = move 0
loop1:
  br lt i, n ? body1 : mid
body1:
  f1 = mod i, 2
  br eq f1, 0 ? a1 : b1
a1:
  acc = add acc, 1
  jump cont1
b1:
  acc = add acc, 2
  jump cont1
cont1:
  i = add i, 1
  jump loop1
mid:
  j = move 0
loop2:
  br lt j, n ? body2 : done
body2:
  f2 = mod j, 2
  br eq f2, 0 ? a2 : b2
a2:
  acc = add acc, 3
  jump cont2
b2:
  acc = add acc, 4
  jump cont2
cont2:
  j = add j, 1
  jump loop2
done:
  ret acc
}
"""


class TestCurveShape:
    def test_starts_at_profile(self, alternating_loop):
        planner = planner_for(alternating_loop, [100])
        points = tradeoff_curve(planner)
        assert points[0].size_factor == 1.0
        assert points[0].step is None
        profile_rate = (
            planner.profile_mispredictions() / planner.total_executions()
        )
        assert points[0].misprediction_rate == profile_rate

    def test_monotone_improvement(self, correlated_branches):
        points = tradeoff_curve(planner_for(correlated_branches, [100]))
        for earlier, later in zip(points, points[1:]):
            assert later.mispredictions < earlier.mispredictions
            assert later.size >= earlier.size

    def test_steps_record_upgrades(self, alternating_loop):
        points = tradeoff_curve(planner_for(alternating_loop, [100]))
        assert len(points) >= 2
        site, n_states = points[1].step
        assert site == BranchSite("main", "body")
        assert n_states >= 2

    def test_size_cap_respected(self, correlated_branches):
        capped = tradeoff_curve(
            planner_for(correlated_branches, [100]), max_size_factor=1.5
        )
        assert all(p.size_factor <= 1.5 for p in capped)

    def test_different_loops_add_not_multiply(self):
        program = parse_program(TWO_LOOPS)
        planner = planner_for(program, [60])
        points = tradeoff_curve(planner)
        # Improving both alternating branches (one in each loop) must
        # roughly double the two loop bodies, not square them.
        final = points[-1]
        assert final.size_factor < 3.0
        assert final.mispredictions < points[0].mispredictions / 2

    def test_curve_ends_when_no_gain(self, alternating_loop):
        planner = planner_for(alternating_loop, [100])
        points = tradeoff_curve(planner)
        # Running again from the final state must add nothing: the last
        # point's mispredictions equal the planner's best.
        best = planner.best_misprediction_rate(6)
        assert abs(points[-1].misprediction_rate - best) < 0.05


class TestGreedyOrder:
    def test_cheap_wins_first(self):
        # One alternating branch in a tiny loop and one in a huge loop:
        # the tiny loop's upgrade has a better gain/size ratio.
        program = parse_program(
            """
func main(n) {
entry:
  i = move 0
  acc = move 0
small:
  br lt i, n ? sbody : mid
sbody:
  f = mod i, 2
  br eq f, 0 ? sa : sb
sa:
  acc = add acc, 1
  jump scont
sb:
  acc = add acc, 2
  jump scont
scont:
  i = add i, 1
  jump small
mid:
  j = move 0
big:
  br lt j, n ? bbody : done
bbody:
  g = mod j, 2
  pad1 = add acc, 0
  pad2 = add pad1, 0
  pad3 = add pad2, 0
  pad4 = add pad3, 0
  pad5 = add pad4, 0
  pad6 = add pad5, 0
  pad7 = add pad6, 0
  pad8 = add pad7, 0
  br eq g, 0 ? ba : bb
ba:
  acc = add acc, 3
  jump bcont
bb:
  acc = add acc, 4
  jump bcont
bcont:
  j = add j, 1
  jump big
done:
  ret acc
}
"""
        )
        planner = planner_for(program, [60])
        points = tradeoff_curve(planner)
        first_upgrade_site, _ = points[1].step
        assert first_upgrade_site == BranchSite("main", "sbody")
