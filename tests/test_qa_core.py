"""Unit tests for the QA invariant/journey machinery — no daemon.

Everything here runs against fakes: a world is anything with a
``conditions`` attribute, and a client is a :class:`ServiceClient`
subclass with the transport overridden.  The live end-to-end paths are
covered by ``test_qa_integration.py``.
"""

import json

import pytest

from repro.qa import (
    CHAOS_SCENARIOS,
    CRITICAL,
    JOURNEYS,
    SKIP,
    WARNING,
    Invariant,
    JourneyError,
    check_invariants,
    default_invariants,
    expect,
    render_text,
    run_suite,
    sabotage_invariant,
    write_json,
)
from repro.qa.core import CONDITIONS
from repro.qa.runner import JourneyResult
from repro.service.client import PredictKey, ServiceClient, ServiceError, unwrap_envelope
from repro.service.handlers import envelope, error_envelope


class FakeWorld:
    def __init__(self, conditions=("accepting", "stable_fleet")):
        self.conditions = set(conditions)


class TestInvariant:
    def test_severity_is_validated(self):
        with pytest.raises(ValueError):
            Invariant("bad", lambda world: True, severity="fatal")

    def test_requires_normalised_to_frozenset(self):
        invariant = Invariant("x", lambda world: True, requires=["accepting"])
        assert invariant.requires == frozenset({"accepting"})


class TestCheckInvariants:
    def run(self, invariants, world=None):
        return check_invariants(world or FakeWorld(), invariants, "j", "s")

    def test_true_and_none_both_pass(self):
        violations, skips, checked = self.run(
            [Invariant("a", lambda w: True), Invariant("b", lambda w: None)]
        )
        assert violations == [] and skips == []
        assert checked == ["a", "b"]

    def test_false_is_a_violation_without_detail(self):
        violations, _, checked = self.run([Invariant("a", lambda w: False)])
        assert len(violations) == 1
        assert violations[0].invariant == "a"
        assert violations[0].detail == {}
        assert violations[0].severity == CRITICAL
        assert checked == ["a"]

    def test_dict_result_becomes_divergent_value_detail(self):
        violations, _, _ = self.run(
            [Invariant("a", lambda w: {"expected": 2, "observed": 3}, severity=WARNING)]
        )
        assert violations[0].detail == {"expected": 2, "observed": 3}
        assert violations[0].severity == WARNING
        # the report names journey, step, invariant and the divergence
        text = str(violations[0])
        assert "j/s" in text and "a" in text and "expected=2" in text

    def test_skip_sentinel_is_recorded_not_checked(self):
        _, skips, checked = self.run([Invariant("a", lambda w: SKIP)])
        assert checked == []
        assert skips[0].reason == "check not evaluable"

    def test_raising_check_is_a_violation(self):
        def boom(world):
            raise RuntimeError("torn")

        violations, _, checked = self.run([Invariant("a", boom)])
        assert checked == ["a"]
        assert violations[0].detail == {"check_raised": "RuntimeError: torn"}

    def test_missing_conditions_skip_names_them(self):
        invariant = Invariant(
            "a", lambda w: False, requires={"accepting", "fleet"}
        )
        _, skips, checked = self.run([invariant], world=FakeWorld({"accepting"}))
        assert checked == []
        assert skips[0].reason == "missing conditions: fleet"

    def test_nothing_raises_out(self):
        violations, _, _ = self.run([Invariant("a", lambda w: 1 / 0)])
        assert "ZeroDivisionError" in violations[0].detail["check_raised"]


class TestExpect:
    def test_passing_expectation_is_silent(self):
        expect(True, "never seen")

    def test_failure_carries_sorted_detail(self):
        with pytest.raises(JourneyError) as excinfo:
            expect(False, "status wrong", status=503, step="warm")
        assert str(excinfo.value) == "status wrong (status=503, step='warm')"


class TestCatalogs:
    def test_default_invariants_are_unique_and_plentiful(self):
        invariants = default_invariants()
        names = [invariant.name for invariant in invariants]
        assert len(names) == len(set(names))
        assert len(names) >= 10
        for invariant in invariants:
            assert invariant.requires <= frozenset(CONDITIONS)

    def test_journeys_cover_the_acceptance_floor(self):
        assert len(JOURNEYS) >= 4
        for name, journey in JOURNEYS.items():
            assert journey.name == name
            assert journey.workers_min >= 1

    def test_chaos_scenarios_reference_real_journeys(self):
        assert len(CHAOS_SCENARIOS) >= 3
        for scenario in CHAOS_SCENARIOS.values():
            assert scenario.base_journey in JOURNEYS

    def test_sabotage_invariant_is_critical_and_not_default(self):
        sabotage = sabotage_invariant()
        assert sabotage.severity == CRITICAL
        assert sabotage.name not in {i.name for i in default_invariants()}

    def test_run_suite_rejects_unknown_names_before_spawning(self):
        with pytest.raises(ValueError):
            run_suite(journey_names=["no-such-journey"])
        with pytest.raises(ValueError):
            run_suite(journey_names=["pipeline"], chaos_names=["no-such-chaos"])


class TestJourneyResult:
    def test_ok_requires_no_error_and_no_critical_violation(self):
        from repro.qa.core import Violation

        result = JourneyResult(journey="j", chaos=None, workers=1)
        assert result.ok
        result.violations.append(Violation("j", "s", "warn", WARNING, {}))
        assert result.ok  # warnings do not fail the journey
        result.violations.append(Violation("j", "s", "crit", CRITICAL, {}))
        assert not result.ok
        failed = JourneyResult(journey="j", chaos=None, workers=1, error="boom")
        assert not failed.ok

    def test_label_includes_chaos(self):
        assert JourneyResult("j", "kill", 2).label == "j+kill"
        assert JourneyResult("j", None, 1).label == "j"


class TestReport:
    def _report(self, ok):
        violation = {
            "journey": "pipeline",
            "step": "replay-warm",
            "invariant": "counters.requests_match_log",
            "severity": CRITICAL,
            "detail": {"counted": 5, "logged": 4},
        }
        return {
            "ok": ok,
            "journeys": [
                {
                    "journey": "pipeline",
                    "chaos": "worker_kill" if not ok else None,
                    "workers": 2,
                    "steps": ["a", "b"],
                    "checks": 20,
                    "violations": [] if ok else [violation],
                    "skips": [],
                    "error": None,
                    "duration_s": 1.5,
                    "ok": ok,
                }
            ],
            "journeys_skipped": [],
            "invariants_checked": ["counters.requests_match_log"],
            "totals": {
                "journeys": 1,
                "steps": 2,
                "checks": 20,
                "critical_violations": 0 if ok else 1,
                "skips": 0,
                "errors": 0,
            },
        }

    def test_render_names_step_invariant_and_divergent_values(self):
        text = render_text(self._report(ok=False))
        assert "FAIL pipeline+worker_kill" in text
        assert "step='replay-warm'" in text
        assert "invariant='counters.requests_match_log'" in text
        assert "counted = 5" in text and "logged = 4" in text
        assert text.strip().endswith("1 journey errors") or "FAIL:" in text

    def test_render_pass_line(self):
        text = render_text(self._report(ok=True))
        assert text.splitlines()[0].startswith("ok  pipeline")
        assert "PASS:" in text

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(self._report(ok=True), str(path))
        assert json.loads(path.read_text())["ok"] is True
        write_json(self._report(ok=True), None)  # no path: a no-op


class TestEnvelopeHelpers:
    def test_success_envelope_shape(self):
        assert envelope({"x": 1}) == {"v": 1, "ok": True, "data": {"x": 1}}

    def test_error_envelope_includes_retry_after_only_when_given(self):
        body = error_envelope({"code": "overloaded", "message": "m"}, retry_after=1)
        assert body == {
            "v": 1,
            "ok": False,
            "error": {"code": "overloaded", "message": "m", "retry_after": 1},
        }
        plain = error_envelope({"code": "unknown_route", "message": "m"})
        assert "retry_after" not in plain["error"]

    def test_unwrap_envelope(self):
        assert unwrap_envelope(envelope({"a": 1})) == {"a": 1}
        # non-envelope and error bodies pass through untouched
        assert unwrap_envelope({"status": "ok"}) == {"status": "ok"}
        assert unwrap_envelope({"v": 1, "ok": False, "error": {}}) == {
            "v": 1,
            "ok": False,
            "error": {},
        }
        assert unwrap_envelope([1, 2]) == [1, 2]

    def test_service_error_carries_retry_after(self):
        error = ServiceError(429, "overloaded", "try later", retry_after=2.0)
        assert error.retry_after == 2.0
        assert ServiceError(404, "unknown_route", "nope").retry_after is None


class RecordingClient(ServiceClient):
    """predict_many drives request(); capture its bodies instead of HTTP."""

    def __init__(self, fail_on=None):
        super().__init__(port=0)
        self.bodies = []
        self.fail_on = fail_on

    def request(self, method, path, body=None, request_id=None):
        assert (method, path) == ("POST", "/predict")
        self.bodies.append(body)
        if self.fail_on is not None and body.get("seed_offset") == self.fail_on:
            raise ServiceError(404, "unknown_predictor", "nope")
        return {"echo": body}


class TestPredictMany:
    def test_tuple_and_dict_keys_normalise_in_order(self):
        client = RecordingClient()
        keys: list = [
            ("compress", "profile"),
            ("compress", "profile", 2),
            ("compress", "profile", 2, 7),
            {"name": "compress", "predictor": "profile", "seed_offset": 9},
        ]
        results = client.predict_many(keys)
        assert [body["seed_offset"] for body in client.bodies[2:]] == [7, 9]
        assert client.bodies[0] == {"name": "compress", "predictor": "profile"}
        assert client.bodies[1]["scale"] == 2
        assert [r["echo"] for r in results] == client.bodies

    def test_bad_tuple_arity_raises_value_error(self):
        with pytest.raises(ValueError):
            RecordingClient().predict_many([("compress",)])

    def test_error_names_the_offending_key(self):
        client = RecordingClient(fail_on=7)
        with pytest.raises(ServiceError) as excinfo:
            client.predict_many(
                [("compress", "profile", 1, 6), ("compress", "profile", 1, 7)]
            )
        assert excinfo.value.details["key"]["seed_offset"] == 7
