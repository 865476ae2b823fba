"""Pattern-table and profile-data tests."""

import os
import random
import subprocess
import sys
import threading
from array import array

import pytest

from repro.ir import BranchSite
from repro.profiling import PatternTable, ProfileData, Trace

from conftest import NUMPY_MODES, numpy_mode, reference_profile


def alternating_trace(n: int = 100) -> Trace:
    site = BranchSite("f", "b")
    return Trace.from_events((site, index % 2 == 0) for index in range(n))


class TestPatternTable:
    def test_add_and_total(self):
        table = PatternTable(3)
        table.add(0b101, 1)
        table.add(0b101, 0)
        table.add(0b010, 1)
        assert table.total() == (1, 2)
        assert table.executions() == 3

    def test_correct_if_per_pattern(self):
        table = PatternTable(2)
        table.add(0b00, 1)
        table.add(0b00, 1)
        table.add(0b00, 0)
        table.add(0b11, 0)
        assert table.correct_if_per_pattern() == 3

    def test_marginalize_sums_matching_suffixes(self):
        table = PatternTable(3)
        table.add(0b110, 1)  # low bit 0
        table.add(0b010, 0)  # low bit 0
        table.add(0b001, 1)  # low bit 1
        short = table.marginalize(1)
        assert short.counts[0] == [1, 1]
        assert short.counts[1] == [0, 1]

    def test_marginalize_to_zero_bits(self):
        table = PatternTable(3)
        table.add(5, 1)
        table.add(2, 0)
        collapsed = table.marginalize(0)
        assert collapsed.counts == {0: [1, 1]}

    def test_marginalize_identity(self):
        table = PatternTable(2)
        table.add(1, 1)
        clone = table.marginalize(2)
        assert clone.counts == table.counts
        clone.add(1, 1)
        assert table.counts[1] == [0, 1]  # deep copy

    def test_cannot_widen(self):
        with pytest.raises(ValueError):
            PatternTable(2).marginalize(3)

    def test_fill(self):
        table = PatternTable(3)
        table.add(0, 1)
        table.add(7, 0)
        assert table.fill() == (2, 8)


class TestProfileData:
    def test_history_bit_order_newest_is_lsb(self):
        # Outcomes T,T,N then observe: history low bits should be
        # (newest first) N,T,T = 0b011... check via the pattern seen at
        # the 4th event.
        site = BranchSite("f", "b")
        trace = Trace.from_events((site, taken) for taken in (True, True, False, True))
        profile = ProfileData.from_trace(trace, local_bits=3)
        table = profile.local[site]
        # Fourth event saw history [N, T, T] newest-first; with the
        # newest outcome in bit 0 that is value 0b110 (bit0=N, bit1=T,
        # bit2=T), outcome taken.
        assert table.counts[0b110] == [0, 1]

    def test_initial_history_is_zero(self):
        site = BranchSite("f", "b")
        trace = Trace.from_events([(site, True)])
        profile = ProfileData.from_trace(trace, local_bits=4)
        assert profile.local[site].counts == {0: [0, 1]}

    def test_totals(self):
        profile = ProfileData.from_trace(alternating_trace(10))
        site = BranchSite("f", "b")
        assert profile.totals[site] == (5, 5)
        assert profile.executions(site) == 10

    def test_alternating_trace_has_two_patterns(self):
        profile = ProfileData.from_trace(alternating_trace(100), local_bits=9)
        table = profile.local[BranchSite("f", "b")]
        # After warmup only 0b0101... and 0b1010... appear.
        assert len(table.counts) <= 10  # warmup patterns plus the two

    def test_global_history_spans_sites(self):
        a, b = BranchSite("f", "a"), BranchSite("f", "b")
        # global history when b executes: 0b1
        trace = Trace.from_events([(a, True), (b, False)])
        profile = ProfileData.from_trace(trace, global_bits=4)
        assert profile.global_tables[b].counts == {0b1: [1, 0]}

    def test_bias(self):
        profile = ProfileData.from_trace(alternating_trace(9))
        assert profile.bias(BranchSite("f", "b")) is True  # 5 taken, 4 not
        assert profile.bias(BranchSite("f", "ghost")) is None

    def test_fill_rate_decreases_with_depth(self):
        profile = ProfileData.from_trace(alternating_trace(500))
        assert profile.fill_rate(1) >= profile.fill_rate(5) >= profile.fill_rate(9)

    def test_fill_rate_alternating(self):
        profile = ProfileData.from_trace(alternating_trace(2000))
        # Two live patterns out of 512 (plus warmup noise).
        assert profile.fill_rate(9) < 0.05

    def test_events_counted(self):
        profile = ProfileData.from_trace(alternating_trace(42))
        assert profile.events == 42

    def test_invalid_depths_rejected(self):
        with pytest.raises(ValueError):
            ProfileData(local_bits=0)
        with pytest.raises(ValueError):
            ProfileData(global_bits=30)

    def test_unexecuted_interned_site_not_in_tables(self):
        ghost, real = BranchSite("f", "ghost"), BranchSite("f", "real")
        trace = Trace([ghost, real], array("i", [1]), b"\x01", 1)
        profile = ProfileData.from_trace(trace)
        assert BranchSite("f", "ghost") not in profile.totals
        assert BranchSite("f", "real") in profile.local


class TestFillRateNeverExecutedSites:
    def test_missing_sites_count_as_zero_used(self):
        profile = ProfileData.from_trace(alternating_trace(64))
        executed = BranchSite("f", "b")
        dead = BranchSite("f", "never_taken")
        solo = profile.fill_rate(1, sites=[executed])
        # A caller passing every static site (e.g. program.branch_sites())
        # must not blow up on branches that never executed — they dilute
        # the fill rate instead.
        diluted = profile.fill_rate(1, sites=[executed, dead])
        assert diluted == pytest.approx(solo / 2)

    def test_all_dead_sites_is_zero(self):
        profile = ProfileData.from_trace(alternating_trace(16))
        assert profile.fill_rate(3, sites=[BranchSite("g", "x")]) == 0.0

    def test_fill_rate_over_program_branch_sites(self):
        # End to end: the exact caller shape the bug report names.
        from repro.workloads import get_profile, get_program

        profile = get_profile("compress", 1)
        sites = get_program("compress").branch_sites()
        rate = profile.fill_rate(4, sites=sites)
        assert 0.0 < rate <= 1.0


@pytest.mark.parametrize("disabled", NUMPY_MODES)
def test_racing_readers_build_equal_global_tables(disabled):
    """The global tables are built on their first read without a lock:
    threads that read a fresh profile's tables at once may each build
    them, and every reader must get the per-event oracle's tables."""
    rng = random.Random(7)
    trace = Trace.from_events(
        (BranchSite("f", f"b{rng.randrange(6)}"), rng.random() < 0.6) for _ in range(5000)
    )

    def dump(profile):
        return [(site, list(t.counts.items())) for site, t in profile.global_tables.items()]

    expected = dump(reference_profile(trace))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with numpy_mode(disabled):
            for _ in range(5):
                profile = ProfileData.from_trace(trace)
                results = [None] * 8

                def read(index, profile=profile):
                    results[index] = dump(profile)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


_COLD_PLAN_SCRIPT = """
import sys
from repro.replication import ReplicationPlanner, tradeoff_curve
from repro.workloads import get_profile, get_program

planner = ReplicationPlanner(get_program("compress"), get_profile("compress", 1))
tradeoff_curve(planner)
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""

_CLOSED_FORM_SCRIPT = """
import sys
from repro.predictors import ProfilePredictor, evaluate_many, static_predictors
from repro.service import handlers
from repro.service.state import ServiceConfig, ServiceState
from repro.workloads import get_profile, get_program, get_trace

predictors = [
    *static_predictors(get_program("compress")),
    ProfilePredictor(get_profile("compress", 1)),
]
evaluate_many(predictors, get_trace("compress", 1))
state = ServiceState(ServiceConfig())
body = {"name": "compress", "predictor": "profile"}
handlers.dispatch(state, "POST", "/predict", body, proxy=False)
state.close()
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


@pytest.mark.parametrize(
    "script", [_COLD_PLAN_SCRIPT, _CLOSED_FORM_SCRIPT], ids=["plan", "closed-form"]
)
def test_cold_profile_and_plan_never_import_numpy(tmp_path, script):
    """A fresh process that profiles and plans from an empty artifact
    cache (a service worker's cold ``POST /plan``), or scores the static
    predictors and ``profile`` in closed form (``evaluate_many`` and the
    classic ``POST /predict``), must not import numpy: the import would
    add tens of megabytes to every fleet worker.  ``ProfileData.from_trace``
    takes the columnar route, and a view uses numpy, only where numpy is
    already loaded; only an online predictor's kernel loads it."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
    env.pop("REPRO_NO_NUMPY", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
    assert list(tmp_path.iterdir())  # the run really went through the cache
