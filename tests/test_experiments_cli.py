"""Experiment CLI tests: argument validation, cache subcommand, and
cold-vs-warm determinism."""

import pytest

from repro.experiments.cli import main
from repro.obs import OBS
from repro.workloads.artifacts import clear_memory_cache


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_cache()
    OBS.reset(prefix="artifacts.")
    yield
    clear_memory_cache()
    OBS.reset(prefix="artifacts.")


class TestValidation:
    def test_unknown_name_rejected_with_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--names", "compress,quake"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "quake" in err
        assert "compress" in err  # the valid-choices listing
        assert "abalone" in err

    def test_csv_dir_rejected_for_non_figures_target(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--csv-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--csv-dir" in capsys.readouterr().err

    def test_cache_action_invalid_elsewhere(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "clear"])

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", "0", "--names", "compress"])


class TestCacheSubcommand:
    def test_stats_on_empty_cache(self, fresh_cache, capsys):
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries: 0 file(s)" in out

    def test_stats_after_run_lists_entries(self, fresh_cache, capsys):
        assert main(["table1", "--names", "compress", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 2 file(s)" in out
        assert "compress-s1-o0-h8-v" in out

    def test_clear_removes_entries(self, fresh_cache, capsys):
        assert main(["table1", "--names", "compress", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache"]) == 0
        assert "entries: 0 file(s)" in capsys.readouterr().out


class TestColdWarmDeterminism:
    def test_warm_run_is_byte_identical_and_interpreter_free(
        self, fresh_cache, capsys
    ):
        assert main(["table1", "--names", "compress", "--jobs", "1"]) == 0
        cold = capsys.readouterr().out
        assert OBS.counter("artifacts.interpreter.runs") == 1
        clear_memory_cache()
        OBS.reset(prefix="artifacts.")
        assert main(["table1", "--names", "compress", "--jobs", "1"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert OBS.counter("artifacts.interpreter.runs") == 0

    def test_timings_go_to_stderr_not_stdout(self, fresh_cache, capsys):
        assert (
            main(["table1", "--names", "compress", "--jobs", "1", "--timings"]) == 0
        )
        captured = capsys.readouterr()
        assert "[timings]" in captured.err
        assert "[timings]" not in captured.out


class TestTelemetryExports:
    def test_snapshot_and_metrics_out(self, fresh_cache, capsys, tmp_path):
        from repro.obs import snapshot_from_dict, validate_exposition

        snap_path = tmp_path / "snap.json"
        metrics_path = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "table1",
                    "--names",
                    "compress",
                    "--snapshot-out",
                    str(snap_path),
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        capsys.readouterr()  # table output, not under test here

        import json

        snapshot = snapshot_from_dict(json.loads(snap_path.read_text()))
        assert snapshot.counters.get("engine.events", 0) > 0
        assert "engine.scan_seconds" in snapshot.hists

        text = metrics_path.read_text()
        validate_exposition(text)
        assert "# TYPE repro_engine_scan_seconds histogram" in text
