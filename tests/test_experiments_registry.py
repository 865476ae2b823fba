"""Registry, single-scan behaviour, data parity and output formats.

* the registry enumerates every CLI target;
* table1 performs exactly **one** trace scan per benchmark (the profile
  row rides the closed-form path, not a second replay);
* converted experiments produce the same ``Table.data`` as a hand-rolled
  per-predictor sequential loop at seed scale;
* ``--format json|csv`` round-trips titles, column and row labels.
"""

import csv
import io
import json

import pytest

from repro.experiments import table1
from repro.experiments.cli import main
from repro.experiments.registry import (
    RunContext,
    all_experiments,
    experiment_names,
    get_experiment,
)
from repro.predictors import (
    AlwaysTaken,
    CorrelationPredictor,
    LastDirection,
    LoopCorrelationPredictor,
    LoopPredictor,
    ProfilePredictor,
    SaturatingCounter,
    backward_taken,
    ball_larus,
    evaluate,
    opcode_heuristic,
    two_level_4k,
)
from repro.profiling import Trace
from repro.profiling.columns import get_numpy
from repro.workloads import get_artifacts, get_profile, get_program, get_trace

NAMES = ["ghostview", "doduc"]

EXPECTED_TARGETS = {
    "ablation-pruning",
    "ablation-search",
    "alignment",
    "costfn",
    "crossdata",
    "figures",
    "instper",
    "joint",
    "learned-zoo",
    "scheduling",
    "statics",
    "transfer",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "tracelen",
    "twolevel-zoo",
}


class TestRegistry:
    def test_every_target_registered(self):
        assert set(experiment_names()) == EXPECTED_TARGETS

    def test_simple_excludes_multi(self):
        experiments = all_experiments()
        simple = {name for name, exp in experiments.items() if not exp.multi}
        assert simple == EXPECTED_TARGETS - {"figures"}
        assert experiments["figures"].multi

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("tableX")

    def test_descriptions_present(self):
        for experiment in all_experiments().values():
            assert experiment.description

    def test_tables_normalises_multi(self):
        ctx = RunContext(scale=1, names=("doduc",), options={"max_states": 4})
        tables = get_experiment("figures").tables(ctx)
        assert len(tables) == 1
        assert "doduc" in tables[0].title


class TestSingleScan:
    def test_table1_never_replays_events(self, monkeypatch):
        # Warm every artifact/profile cache first so the counted run
        # performs evaluation only.
        table1.run(scale=1, names=NAMES)

        calls = []
        original = Trace.events

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Trace, "events", counting)
        table1.run(scale=1, names=NAMES)
        if get_numpy() is None:
            # Without numpy each of Table 1's seven online strategies is
            # one sequential replay; the profile row stays closed form.
            assert len(calls) == 7 * len(NAMES)
            return
        # Every Table 1 predictor family has a columnar batch kernel,
        # so the per-event replay (`Trace.events`) never runs at all —
        # stronger than the old one-shared-scan-per-trace guarantee.
        assert calls == []


class TestDataParity:
    """Converted experiments == hand-rolled sequential loops."""

    def test_table1_rows(self):
        result = table1.run(scale=1, names=NAMES)
        for column, name in enumerate(NAMES):
            profile = get_profile(name, 1)
            trace = get_artifacts(name, scale=1).trace
            legacy = {
                "last direction": LastDirection(),
                "2 bit counter": SaturatingCounter(2),
                "two level 4K bit": two_level_4k(),
                "profile": ProfilePredictor(profile),
                "1 bit correlation": CorrelationPredictor(profile, 1),
                "1 bit loop": LoopPredictor(profile, 1),
                "9 bit loop": LoopPredictor(profile, 9),
                "loop-correlation": LoopCorrelationPredictor(profile),
            }
            for label, predictor in legacy.items():
                expected = evaluate(predictor, trace).misprediction_rate
                assert result.data[label][column] == expected, (label, name)

    def test_statics_rows(self):
        statics = get_experiment("statics").execute(RunContext(names=NAMES))
        for column, name in enumerate(NAMES):
            program = get_program(name)
            trace = get_trace(name, 1)
            legacy = {
                "always taken": AlwaysTaken(),
                "backward taken": backward_taken(program),
                "opcode": opcode_heuristic(program),
                "ball-larus": ball_larus(program),
                "profile": ProfilePredictor(get_profile(name, 1)),
            }
            for label, predictor in legacy.items():
                expected = evaluate(predictor, trace).misprediction_rate
                assert statics.data[label][column] == expected, (label, name)

    def test_instper_rows(self):
        instper = get_experiment("instper").execute(RunContext(names=NAMES))
        for column, name in enumerate(NAMES):
            profile = get_profile(name, 1)
            artifacts = get_artifacts(name, scale=1)
            result = evaluate(LoopCorrelationPredictor(profile), artifacts.trace)
            expected = artifacts.steps / result.mispredictions
            assert instper.data["loop-correlation"][column] == expected


class TestOutputFormats:
    def run_cli(self, capsys, *argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_json_round_trips_labels(self, capsys):
        text = self.run_cli(capsys, "table1", "--names", "doduc")
        payload = json.loads(
            self.run_cli(capsys, "table1", "--names", "doduc", "--format", "json")
        )
        assert payload["columns"] == ["doduc"]
        assert payload["title"].startswith("Table 1")
        assert "profile" in payload["rows"]
        # every rendered cell appears in the text output too
        for row in payload["rows"]:
            assert row in text
            for cell in payload["cells"][row]:
                assert cell in text
            assert len(payload["data"][row]) == 1

    def test_json_multiple_tables_is_array(self, capsys):
        out = self.run_cli(
            capsys, "figures", "--names", "doduc", "--format", "json"
        )
        payload = json.loads(out)
        assert isinstance(payload, list) or payload["columns"]

    def test_csv_round_trips_labels(self, capsys):
        out = self.run_cli(
            capsys, "statics", "--names", "doduc", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "table"
        assert rows[1] == ["", "doduc"]
        labels = [row[0] for row in rows[2:] if row]
        assert "ball-larus" in labels

    def test_text_format_is_default(self, capsys):
        explicit = self.run_cli(
            capsys, "statics", "--names", "doduc", "--format", "text"
        )
        default = self.run_cli(capsys, "statics", "--names", "doduc")
        assert explicit == default
