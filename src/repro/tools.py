"""``python -m repro`` — a command-line front end to the whole pipeline.

Works on textual IR files (see :mod:`repro.ir.parser` for the format):

    python -m repro validate prog.ir
    python -m repro run prog.ir --args 100
    python -m repro trace prog.ir --args 100 -o prog.trace
    python -m repro analyze prog.ir --args 100
    python -m repro optimize prog.ir --args 100 --max-states 4 -o out.ir
    python -m repro machines prog.ir --args 100 --branch main:body

`optimize` is the full paper pipeline: profile a training run, choose
the best machine per branch, replicate, annotate and report the
measured misprediction improvement; the transformed program is written
back as text.

`serve` runs the prediction-as-a-service daemon (no IR file — it works
on the built-in benchmark suite over HTTP; see :mod:`repro.service`):

    python -m repro serve --port 8642 --workers 4 --threads 4

`obs-export` renders a snapshot saved by a CLI run
(``python -m repro.experiments ... --snapshot-out obs.json``) as
Prometheus text exposition — the same format ``GET /metrics`` serves:

    python -m repro obs-export obs.json -o metrics.prom
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cfg import classify_branches
from .ir import BranchSite, format_program, parse_program, validate_program
from .interp import run_program
from .profiling import (
    load_profile,
    profile_program,
    save_profile,
    save_trace,
    trace_program,
)
from .replication import (
    ReplicationPlanner,
    apply_replication,
    measure_annotated,
)
from .statemachines import machine_to_ascii, machine_to_dot


def _load(path: str):
    with open(path) as stream:
        program = parse_program(stream.read())
    validate_program(program)
    return program


def _parse_args_list(text: Optional[str]) -> List[int]:
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def cmd_validate(options) -> int:
    _load(options.program)
    print(f"{options.program}: OK")
    return 0


def cmd_run(options) -> int:
    program = _load(options.program)
    result = run_program(program, _parse_args_list(options.args))
    print(f"result: {result.value}")
    print(f"output: {result.output}")
    print(f"steps: {result.steps}, branches: {result.branches}")
    return 0


def cmd_trace(options) -> int:
    program = _load(options.program)
    trace, result = trace_program(program, _parse_args_list(options.args))
    print(f"{len(trace)} branch events, result {result.value}")
    if options.output:
        save_trace(trace, options.output)
        print(f"trace written to {options.output}")
    return 0


def cmd_analyze(options) -> int:
    program = _load(options.program)
    profile, _ = profile_program(program, _parse_args_list(options.args))
    infos = classify_branches(program)
    print(f"{options.program}: {program.size()} instructions, "
          f"{len(program.branch_sites())} branches, {profile.events} events\n")
    print(f"{'branch':30s} {'class':12s} {'execs':>8s} {'taken%':>8s} "
          f"{'profile-miss%':>14s}")
    for site, counts in sorted(profile.totals.items()):
        info = infos.get(site)
        kind = info.kind.value if info else "?"
        executions = counts[0] + counts[1]
        taken_pct = 100 * counts[1] / executions
        miss = 100 * min(counts) / executions
        print(f"{str(site):30s} {kind:12s} {executions:8d} {taken_pct:7.1f}% "
              f"{miss:13.2f}%")
    return 0


def cmd_profile(options) -> int:
    """Profile one run into pattern tables, saved for later optimize."""
    program = _load(options.program)
    profile, result = profile_program(program, _parse_args_list(options.args))
    print(f"{profile.events} branch events over {len(profile.totals)} "
          f"branches (result {result.value})")
    if options.output:
        save_profile(profile, options.output)
        print(f"profile written to {options.output}")
    return 0


def cmd_optimize(options) -> int:
    program = _load(options.program)
    args = _parse_args_list(options.args)
    if options.profile:
        profile = load_profile(options.profile)
        print(f"using saved profile {options.profile} "
              f"({profile.events} events)")
    else:
        profile, _ = profile_program(program, args)
    planner = ReplicationPlanner(program, profile, options.max_states)
    selections = []
    for plan, option in planner.picks():
        selections.append((plan.site, option.scored.machine))
        print(f"improving {plan.site}: {option.family} machine, "
              f"{option.n_states} states")
    if not selections:
        print("nothing to improve; emitting profile annotations only")
    report = apply_replication(program, selections, profile)
    baseline = measure_annotated(
        apply_replication(program, [], profile).program, args
    )
    improved = measure_annotated(report.program, args)
    print(f"code size: {report.size_before} -> {report.size_after} "
          f"({report.size_factor:.2f}x)")
    print(f"misprediction: {baseline.misprediction_rate:.2%} -> "
          f"{improved.misprediction_rate:.2%}")
    if options.output:
        with open(options.output, "w") as stream:
            stream.write(format_program(report.program))
        print(f"transformed program written to {options.output}")
    return 0


def cmd_machines(options) -> int:
    program = _load(options.program)
    profile, _ = profile_program(program, _parse_args_list(options.args))
    planner = ReplicationPlanner(program, profile, options.max_states)
    function_name, _, block = options.branch.partition(":")
    site = BranchSite(function_name, block)
    plan = planner.plans.get(site)
    if plan is None:
        print(f"no such executed branch: {options.branch}", file=sys.stderr)
        return 1
    print(f"{site}: {plan.info.kind.value}, {plan.executions} executions, "
          f"profile predicts {plan.profile_correct} correctly")
    for option in plan.options:
        machine = option.scored.machine
        print(f"\n-- {option.n_states} states ({option.family}), "
              f"{option.correct} correct, +{option.extra_size} instructions --")
        if hasattr(machine, "states"):
            print(machine_to_ascii(machine))
            if options.dot:
                print(machine_to_dot(machine))
        else:
            print(machine.describe())
    return 0


def cmd_serve(options) -> int:
    from .service import ServiceConfig, serve

    return serve(
        ServiceConfig(
            host=options.host,
            port=options.port,
            threads=options.threads,
            workers=options.workers,
            queue_limit=options.queue_limit,
            lru_size=options.lru_size,
            drain_seconds=options.drain_seconds,
            verbose=options.verbose,
            log_json=options.log_json,
            ready_file=options.ready_file,
            trace_off=options.trace_off,
            trace_sample=options.trace_sample,
            trace_slow_ms=options.trace_slow_ms,
            trace_capacity=options.trace_capacity,
        )
    )


def cmd_qa(options) -> int:
    """Journey QA: real journeys against a live daemon, cross-system
    invariants after every step, optional chaos (see ``repro.qa``)."""
    from .qa import CHAOS_SCENARIOS, JOURNEYS, render_text, run_suite, write_json
    from .qa.invariants import default_invariants

    if options.qa_command == "list":
        print("journeys:")
        for journey in JOURNEYS.values():
            extra = f" (needs >= {journey.workers_min} workers)" \
                if journey.workers_min > 1 else ""
            print(f"  {journey.name:20s} {journey.description}{extra}")
        print("chaos scenarios:")
        for scenario in CHAOS_SCENARIOS.values():
            print(f"  {scenario.name:20s} {scenario.description} "
                  f"[rides on {scenario.base_journey}]")
        print("invariants:")
        for invariant in default_invariants():
            requires = ", ".join(sorted(invariant.requires)) or "-"
            print(f"  {invariant.name:32s} [{invariant.severity}] "
                  f"requires: {requires}")
        return 0

    chaos = list(options.chaos or [])
    if chaos == ["all"]:
        chaos = sorted(CHAOS_SCENARIOS)
    elif chaos == ["none"]:
        chaos = []
    report = run_suite(
        journey_names=options.journeys or None,
        chaos_names=chaos,
        workers=options.workers,
        inject_failure=options.inject_failure,
        keep_root=options.keep,
        progress=lambda message: print(f"qa: {message}", file=sys.stderr, flush=True),
    )
    write_json(report, options.report)
    print(render_text(report))
    if options.report:
        print(f"qa: report written to {options.report}", file=sys.stderr)
    return 0 if report["ok"] else 1


def cmd_obs_export(options) -> int:
    """Render a saved observer snapshot as Prometheus text.

    CLI runs have no scrape endpoint; ``repro.experiments --snapshot-out``
    writes the snapshot JSON this command turns into the same exposition
    ``GET /metrics`` would have served.
    """
    import json as json_module

    from .obs import render_prometheus, snapshot_from_dict, validate_exposition

    with open(options.snapshot) as stream:
        snapshot = snapshot_from_dict(json_module.load(stream))
    text = render_prometheus(snapshot)
    validate_exposition(text)
    if options.output:
        with open(options.output, "w") as stream:
            stream.write(text)
        print(f"metrics written to {options.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Semi-static branch prediction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("program", help="textual IR file")
        p.add_argument("--args", default="", help="comma-separated main() args")

    p = sub.add_parser("validate", help="parse and validate an IR file")
    p.add_argument("program")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute a program")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="collect a branch trace")
    common(p)
    p.add_argument("-o", "--output", help="write compressed trace here")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("analyze", help="profile and classify branches")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("profile", help="profile a run into pattern tables")
    common(p)
    p.add_argument("-o", "--output", help="write profile file here")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("optimize", help="replicate code for prediction")
    common(p)
    p.add_argument("--max-states", type=int, default=4)
    p.add_argument("--profile", help="train from a saved profile file")
    p.add_argument("-o", "--output", help="write transformed IR here")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("machines", help="show candidate machines for a branch")
    common(p)
    p.add_argument("--branch", required=True, help="function:block")
    p.add_argument("--max-states", type=int, default=6)
    p.add_argument("--dot", action="store_true", help="also emit Graphviz DOT")
    p.set_defaults(func=cmd_machines)

    p = sub.add_parser("serve", help="run the prediction-as-a-service daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; > 1 runs the supervised "
                        "pre-fork fleet behind one listening socket")
    p.add_argument("--threads", type=int, default=4,
                   help="threads executing heavy endpoint work, per process")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="extra requests allowed to queue before 429")
    p.add_argument("--ready-file", default=None, metavar="PATH",
                   help="write a JSON readiness document (port, pids, "
                        "control dir) here once accepting")
    p.add_argument("--lru-size", type=int, default=128,
                   help="capacity of each in-process result cache")
    p.add_argument("--drain-seconds", type=float, default=10.0,
                   help="graceful-shutdown drain deadline")
    p.add_argument("--verbose", action="store_true",
                   help="log one line per request to stderr")
    p.add_argument("--log-json", action="store_true",
                   help="one structured JSON access-log line per request "
                        "on stderr (request id, route, status, duration)")
    p.add_argument("--trace-off", action="store_true",
                   help="disable the always-on request tracing layer "
                        "(flight recorder, /trace, exemplars)")
    p.add_argument("--trace-sample", type=float, default=0.01,
                   metavar="RATE",
                   help="flight-recorder keep rate for unremarkable "
                        "requests (errors and the slow tail are always "
                        "kept); 1.0 keeps everything")
    p.add_argument("--trace-slow-ms", type=float, default=250.0,
                   metavar="MS",
                   help="slow-tail threshold: requests at least this "
                        "slow always enter the flight recorder")
    p.add_argument("--trace-capacity", type=int, default=256,
                   metavar="N",
                   help="finished traces each worker's flight-recorder "
                        "ring retains")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "qa",
        help="invariant-driven journey QA + chaos against a live daemon",
    )
    qa_sub = p.add_subparsers(dest="qa_command", required=True)
    q = qa_sub.add_parser("run", help="run the journey suite")
    q.add_argument("--workers", type=int, default=2,
                   help="fleet size for journeys (journeys declaring a "
                        "higher minimum raise it for themselves)")
    q.add_argument("--journeys", nargs="*", default=None, metavar="NAME",
                   help="journeys to run (default: all)")
    q.add_argument("--chaos", nargs="*", default=None, metavar="NAME",
                   help="chaos scenarios to run after the healthy pass "
                        "('all' = every scenario; default: none)")
    q.add_argument("--report", default=None, metavar="PATH",
                   help="also write the full JSON report here")
    q.add_argument("--inject-failure", action="store_true",
                   help="add a deliberately wrong invariant to prove a "
                        "violation fails the run with a named report")
    q.add_argument("--keep", action="store_true",
                   help="keep each world's temp dir (cache + daemon log)")
    q.set_defaults(func=cmd_qa)
    q = qa_sub.add_parser("list", help="list journeys, chaos scenarios, invariants")
    q.set_defaults(func=cmd_qa)

    p = sub.add_parser(
        "obs-export",
        help="render a saved observer snapshot as Prometheus text",
    )
    p.add_argument("snapshot",
                   help="snapshot JSON (repro.experiments --snapshot-out)")
    p.add_argument("-o", "--output",
                   help="write exposition here instead of stdout")
    p.set_defaults(func=cmd_obs_export)
    return parser


def cmd_profile_wrap(args: List[str]) -> int:
    """``python -m repro profile [-o PATH] [--interval S] -- <experiment>``

    Runs the experiments CLI under the sampling wall-clock profiler
    (:mod:`repro.obs.profiler`) and emits collapsed-stack text — the
    flamegraph input format — to ``-o`` or stderr.  The legacy
    ``profile <program.ir>`` spelling (no ``--``) is untouched.
    """
    from .experiments import cli as experiments_cli
    from .obs.profiler import StackSampler

    split = args.index("--")
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="sample the wall-clock stacks of an experiment run",
    )
    parser.add_argument("-o", "--output", default=None,
                        help="write collapsed stacks here (default: stderr)")
    parser.add_argument("--interval", type=float, default=0.01,
                        help="sampling interval in seconds (default 0.01)")
    options = parser.parse_args(args[1:split])
    workload = args[split + 1:]
    if not workload:
        print("profile: nothing to run after '--'", file=sys.stderr)
        return 2
    sampler = StackSampler(max(0.001, options.interval)).start()
    try:
        code = experiments_cli.main(workload)
    finally:
        text = sampler.stop()
        if options.output:
            with open(options.output, "w") as stream:
                stream.write(text)
            print(f"profile written to {options.output}", file=sys.stderr)
        else:
            sys.stderr.write(text)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "profile" and "--" in args:
        # Sampling-profiler mode: everything after ``--`` is an
        # experiments CLI invocation run under the stack sampler.
        return cmd_profile_wrap(args)
    if args and not args[0].startswith("-"):
        # Experiment names double as top-level commands, so
        # ``python -m repro transfer --format json`` works without the
        # ``.experiments`` spelling.  Registered experiment targets
        # never collide with the subcommands above (both are tested).
        from .experiments import all_experiments
        from .experiments import cli as experiments_cli

        if args[0] in all_experiments() or args[0] in ("all", "cache"):
            return experiments_cli.main(args)
    options = build_parser().parse_args(args)
    return options.func(options)


if __name__ == "__main__":
    sys.exit(main())
