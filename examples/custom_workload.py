"""Build your own workload with the builder API and run the pipeline.

Constructs a small state-machine-driven protocol parser (messages have
a header byte, a length, then payload bytes), whose "is this a header?"
branch follows a strict pattern that plain profiling cannot exploit —
then lets the planner find and realise the structure.

Run with:  python examples/custom_workload.py
"""

from repro.ir import ProgramBuilder, validate_program
from repro.interp import run_program
from repro.profiling import ProfileData, instrumented_run
from repro.replication import (
    ReplicationPlanner,
    apply_replication,
    measure_annotated,
)


def build_parser_program():
    """A message parser: header, fixed length field, 3 payload words."""
    pb = ProgramBuilder()
    fb = pb.function("main", ["messages", "seed"])
    fb.move("seed", "state")
    fb.move(0, "m")
    fb.move(0, "checksum")

    fb.label("msg_head")
    fb.branch("lt", "m", "messages", "parse_header", "finish")

    # Pseudo-random payload generator (inline LCG).
    fb.label("parse_header")
    s1 = fb.mul("state", 1103515245)
    s2 = fb.add(s1, 12345)
    fb.binop("and", s2, 0x7FFFFFFF, "state")
    header = fb.shr("state", 16)
    tag = fb.mod(header, 256)
    fb.add("checksum", tag, "checksum")
    fb.move(0, "p")

    # Exactly three payload words follow every header: the "end of
    # payload?" branch is perfectly periodic with period 4.
    fb.label("payload_head")
    fb.branch("lt", "p", 3, "payload_word", "msg_next")
    fb.label("payload_word")
    w1 = fb.mul("state", 1103515245)
    w2 = fb.add(w1, 12345)
    fb.binop("and", w2, 0x7FFFFFFF, "state")
    word = fb.shr("state", 16)
    masked = fb.binop("and", word, 0xFF)
    fb.add("checksum", masked, "checksum")
    fb.add("p", 1, "p")
    fb.jump("payload_head")

    fb.label("msg_next")
    fb.add("m", 1, "m")
    fb.jump("msg_head")

    fb.label("finish")
    fb.output("checksum")
    fb.ret("checksum")
    return pb.build()


def main() -> None:
    program = build_parser_program()
    validate_program(program)
    args = [500, 42]

    # One instrumented run records the trace and the frame-local
    # path-history tables the correlated-branch planner trains on.
    trace, path_tables, result = instrumented_run(program, args, history_bits=8)
    print(f"parsed 500 messages, checksum={result.value}, "
          f"{len(trace)} branch events")

    profile = ProfileData.from_trace(trace)
    profile.attach_path_tables(path_tables)

    planner = ReplicationPlanner(program, profile, max_states=6)
    print("\nimprovable branches:")
    for plan in planner.improvable_plans():
        option = plan.best_option(6)
        print(f"  {plan.site}: {plan.info.kind.value}, best machine "
              f"{option.n_states} states ({option.family}), "
              f"{plan.profile_correct} -> {option.correct} correct")

    selections = [
        (plan.site, plan.best_option(6).scored.machine)
        for plan in planner.improvable_plans()
    ]
    report = apply_replication(program, selections, profile)
    assert run_program(report.program, args).value == result.value

    baseline = measure_annotated(
        apply_replication(program, [], profile).program, args
    )
    improved = measure_annotated(report.program, args)
    print(f"\nmisprediction: {baseline.misprediction_rate:.2%} -> "
          f"{improved.misprediction_rate:.2%} "
          f"at {report.size_factor:.2f}x code size")


if __name__ == "__main__":
    main()
