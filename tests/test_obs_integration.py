"""Observability wired through the pipeline: CLI parity, trace export,
worker counter isolation, and the expired shims staying gone."""

import json
import os

import pytest

from repro.experiments.cli import main
from repro.experiments.registry import RunContext, get_experiment
from repro.obs import OBS
from repro.workloads.artifacts import (
    clear_memory_cache,
    generate_artifacts,
    get_artifacts,
)


@pytest.fixture(autouse=True)
def quiet_process_observer():
    """Make sure no test leaks an active trace or counters from the
    process singleton into the rest of the suite."""
    yield
    assert OBS.current_trace() is None
    OBS.reset()


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_cache()
    OBS.reset(prefix="artifacts.")
    yield
    clear_memory_cache()
    OBS.reset(prefix="artifacts.")


class TestCliParity:
    def test_stdout_identical_with_and_without_telemetry(
        self, fresh_cache, capsys, tmp_path
    ):
        assert main(["table1", "--names", "compress", "--jobs", "1"]) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "table1",
                    "--names",
                    "compress",
                    "--jobs",
                    "1",
                    "--timings",
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        observed = capsys.readouterr()
        assert observed.out == plain
        assert "[timings]" in observed.err

    def test_json_stdout_stays_parseable_under_timings(
        self, fresh_cache, capsys
    ):
        assert (
            main(
                [
                    "table1",
                    "--names",
                    "compress",
                    "--jobs",
                    "1",
                    "--format",
                    "json",
                    "--timings",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["title"].startswith("Table 1")
        assert "[timings]" in captured.err

    def test_trace_out_writes_chrome_trace_with_pipeline_spans(
        self, fresh_cache, capsys, tmp_path
    ):
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "table1",
                    "--names",
                    "compress",
                    "--jobs",
                    "1",
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        assert doc["metadata"]["producer"] == "repro.obs"
        spans = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {
            "artifacts.prewarm",
            "workload.run",
            "profiling.build",
            "engine.evaluate_many",
            "experiment:table1",
        } <= spans
        counters = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert "engine.events" in counters
        assert "artifacts.cache.misses" in counters

    def test_parallel_prewarm_spans_join_the_run_trace(
        self, fresh_cache, capsys, tmp_path
    ):
        trace = tmp_path / "trace.json"
        argv = ["table1", "--names", "compress,predict", "--jobs", "2"]
        assert main(argv + ["--trace-out", str(trace)]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_id = {e["args"]["span_id"]: e for e in spans}
        assert len(by_id) == len(spans)
        trace_id = doc["metadata"]["trace_id"]
        for event in spans:
            assert event["args"]["trace_id"] == trace_id
            parent = event["args"]["parent_id"]
            if parent is None:
                assert event["name"] in ("artifacts.prewarm", "experiment:table1")
            else:
                assert parent in by_id, event["name"]
        # The interpreter ran in the two worker processes, and each run
        # parents under the parent process's prewarm span.
        runs = [e for e in spans if e["name"] == "workload.run"]
        assert len(runs) == 2
        for event in runs:
            assert event["pid"] != os.getpid()
            assert by_id[event["args"]["parent_id"]]["name"] == "artifacts.prewarm"


class TestWorkerIsolation:
    def test_parallel_generation_merges_counters_under_workers(
        self, fresh_cache
    ):
        generate_artifacts(
            [("compress", 1, 0), ("abalone", 1, 0)], jobs=2
        )
        # The interpreter ran only in the worker processes; the parent's
        # own per-process counters must not claim that work ...
        assert OBS.counter("artifacts.interpreter.runs") == 0
        # ... it lands namespaced instead.
        assert OBS.counter("workers.artifacts.interpreter.runs") == 2
        assert OBS.counter("workers.artifacts.cache.stores") == 2


class TestDeprecationShims:
    """The expired positional shims are gone: old call shapes fail loudly."""

    def test_too_many_positionals_rejected(self, fresh_cache):
        with pytest.raises(TypeError):
            get_artifacts("compress", 1, 0, 8, 9)

    def test_tables_rejects_context_plus_extras(self, fresh_cache):
        experiment = get_experiment("table1")
        ctx = RunContext(scale=1, names=("compress",))
        with pytest.raises(TypeError, match="names"):
            experiment.tables(ctx, names=["compress"])
