"""Toolkit CLI tests (python -m repro ...)."""

import pytest

from repro.tools import main

from conftest import ALTERNATING_LOOP


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "prog.ir"
    path.write_text(ALTERNATING_LOOP)
    return str(path)


def test_validate(ir_file, capsys):
    assert main(["validate", ir_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ir"
    bad.write_text("func main() {\nentry:\n  jump ghost\n}")
    with pytest.raises(Exception):
        main(["validate", str(bad)])


def test_run(ir_file, capsys):
    assert main(["run", ir_file, "--args", "10"]) == 0
    out = capsys.readouterr().out
    assert "result: 15" in out  # 5*1 + 5*2


def test_trace(ir_file, tmp_path, capsys):
    out_path = tmp_path / "prog.trace"
    assert main(["trace", ir_file, "--args", "10", "-o", str(out_path)]) == 0
    assert out_path.exists()
    from repro.profiling import load_trace

    trace = load_trace(str(out_path))
    assert len(trace) == 21


def test_analyze(ir_file, capsys):
    assert main(["analyze", ir_file, "--args", "100"]) == 0
    out = capsys.readouterr().out
    assert "main:body" in out
    assert "intra-loop" in out
    assert "loop-exit" in out


def test_optimize(ir_file, tmp_path, capsys):
    out_path = tmp_path / "opt.ir"
    assert main(
        ["optimize", ir_file, "--args", "100", "-o", str(out_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "improving main:body" in out
    assert "misprediction" in out
    # The emitted program must parse, validate and behave identically.
    from repro.interp import run_program
    from repro.ir import parse_program, validate_program

    program = parse_program(out_path.read_text())
    validate_program(program)
    assert run_program(program, [100]).value == 150
    # Prediction annotations survive the round trip (they are syntax).
    predictions = [
        block.branch.predict
        for block in program.main_function()
        if block.branch is not None
    ]
    assert all(p is not None for p in predictions)


def test_machines(ir_file, capsys):
    assert main(
        ["machines", ir_file, "--args", "100", "--branch", "main:body"]
    ) == 0
    out = capsys.readouterr().out
    assert "intra-loop" in out
    assert "states" in out


def test_machines_unknown_branch(ir_file, capsys):
    assert main(
        ["machines", ir_file, "--args", "100", "--branch", "main:nope"]
    ) == 1


def test_profile_command(ir_file, tmp_path, capsys):
    out_path = tmp_path / "run.profile"
    assert main(["profile", ir_file, "--args", "50", "-o", str(out_path)]) == 0
    assert out_path.exists()
    from repro.profiling import load_profile

    profile = load_profile(str(out_path))
    assert profile.events == 101


def test_optimize_from_saved_profile(ir_file, tmp_path, capsys):
    profile_path = tmp_path / "run.profile"
    assert main(["profile", ir_file, "--args", "100", "-o", str(profile_path)]) == 0
    out_path = tmp_path / "opt.ir"
    assert main(
        [
            "optimize", ir_file, "--args", "100",
            "--profile", str(profile_path), "-o", str(out_path),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "using saved profile" in out
    assert "improving main:body" in out


def test_machines_dot(ir_file, capsys):
    assert main(
        ["machines", ir_file, "--args", "100", "--branch", "main:body", "--dot"]
    ) == 0
    assert "digraph" in capsys.readouterr().out


def test_serve_subcommand_registered_with_defaults():
    """`repro serve` parses and carries the daemon's config knobs; the
    blocking serve loop itself is exercised by tests/test_service.py."""
    from repro.tools import build_parser, cmd_serve

    options = build_parser().parse_args(["serve"])
    assert options.func is cmd_serve
    assert options.host == "127.0.0.1"
    assert options.port == 8642
    assert options.workers == 1  # processes; > 1 boots the fleet
    assert options.threads == 4  # per-worker heavy-request pool
    assert options.queue_limit == 16
    assert options.lru_size == 128
    assert options.drain_seconds == 10.0
    assert options.ready_file is None
    assert options.verbose is False
    custom = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "2", "--threads", "3",
         "--queue-limit", "1", "--lru-size", "8", "--drain-seconds", "0.5",
         "--ready-file", "ready.json", "--verbose"]
    )
    assert (custom.port, custom.workers, custom.threads) == (0, 2, 3)
    assert (custom.queue_limit, custom.ready_file) == (1, "ready.json")
    assert custom.verbose is True


def test_serve_module_entry_points_exist():
    """python -m repro.service and python -m repro.service.loadgen are
    importable entry points (run via their mains elsewhere)."""
    import importlib

    loadgen = importlib.import_module("repro.service.loadgen")
    assert callable(loadgen.main)


def test_serve_parser_accepts_telemetry_flags():
    from repro.tools import build_parser

    options = build_parser().parse_args(
        ["serve", "--log-json", "--trace-sample", "1"]
    )
    assert options.log_json is True
    assert options.trace_sample == 1.0
    defaults = build_parser().parse_args(["serve"])
    assert defaults.log_json is False and defaults.trace_sample == 0.01


def test_obs_export_renders_saved_snapshot(tmp_path, capsys):
    from repro.obs import Observer, validate_exposition
    from repro.obs.export import write_snapshot

    observer = Observer()
    observer.add("engine.events", 123)
    observer.observe("engine.scan_seconds", 0.02)
    snap_path = tmp_path / "snap.json"
    write_snapshot(str(snap_path), observer.snapshot())

    assert main(["obs-export", str(snap_path)]) == 0
    text = capsys.readouterr().out
    validate_exposition(text)
    assert "repro_engine_events 123" in text
    assert "# TYPE repro_engine_scan_seconds histogram" in text

    out_path = tmp_path / "metrics.prom"
    assert main(["obs-export", str(snap_path), "-o", str(out_path)]) == 0
    assert out_path.read_text() == text


def test_obs_export_rejects_garbage_snapshot(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(Exception):
        main(["obs-export", str(bad)])
