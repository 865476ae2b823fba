"""repro — Improving Semi-static Branch Prediction by Code Replication.

A full reproduction of Andreas Krall's PLDI 1994 paper: a small
assembly-level IR and interpreter, branch tracing and pattern-table
profiling, the complete strategy zoo (static, dynamic, two-level
adaptive, semi-static), the branch prediction state machines of
Section 4, the code replication transforms of Section 5, eight
synthetic stand-ins for the paper's benchmark suite, and an experiment
harness regenerating every table and figure.

Typical use::

    from repro import (
        parse_program, profile_program,
        ReplicationPlanner, apply_replication, measure_annotated,
    )

    program = parse_program(source_text)
    profile, _ = profile_program(program, args=[1000])
    planner = ReplicationPlanner(program, profile, max_states=4)
    selections = [(plan.site, option.scored.machine) for plan, option in planner.picks()]
    report = apply_replication(program, selections, profile)
    print(measure_annotated(report.program, args=[1000]).misprediction_rate)

The profile carries the run's frame-local path tables, the only
history the planner trains correlated machines on.
"""

from .cfg import (
    BranchClass,
    BranchInfo,
    CFG,
    DominatorTree,
    Loop,
    LoopForest,
    classify_branches,
)
from .interp import FuelExhausted, Machine, RunResult, TrapError, run_program
from .ir import (
    BasicBlock,
    Branch,
    BranchSite,
    Function,
    FunctionBuilder,
    IRError,
    Program,
    ProgramBuilder,
    ValidationError,
    format_program,
    parse_function,
    parse_program,
    validate_program,
)
from .predictors import (
    CorrelationPredictor,
    LastDirection,
    LoopCorrelationPredictor,
    LoopPredictor,
    Predictor,
    ProfilePredictor,
    SaturatingCounter,
    TwoLevelPredictor,
    ball_larus,
    evaluate,
    two_level_4k,
)
from .profiling import (
    PatternTable,
    ProfileData,
    Trace,
    load_trace,
    profile_program,
    save_trace,
    trace_program,
)
from .replication import (
    ReplicationPlanner,
    ReplicationReport,
    annotate_profile_predictions,
    apply_replication,
    duplicate_correlated_branch,
    measure_annotated,
    replicate_loop_branch,
    tradeoff_curve,
)
from .statemachines import (
    CorrelatedMachine,
    PredictionMachine,
    ScoredMachine,
    best_correlated_machine,
    best_intra_machine,
    best_loop_exit_machine,
)

__version__ = "1.0.0"

__all__ = [
    "BasicBlock",
    "Branch",
    "BranchClass",
    "BranchInfo",
    "BranchSite",
    "CFG",
    "CorrelatedMachine",
    "CorrelationPredictor",
    "DominatorTree",
    "FuelExhausted",
    "Function",
    "FunctionBuilder",
    "IRError",
    "LastDirection",
    "Loop",
    "LoopCorrelationPredictor",
    "LoopForest",
    "LoopPredictor",
    "Machine",
    "PatternTable",
    "PredictionMachine",
    "Predictor",
    "ProfileData",
    "ProfilePredictor",
    "Program",
    "ProgramBuilder",
    "ReplicationPlanner",
    "ReplicationReport",
    "RunResult",
    "SaturatingCounter",
    "ScoredMachine",
    "Trace",
    "TrapError",
    "TwoLevelPredictor",
    "ValidationError",
    "annotate_profile_predictions",
    "apply_replication",
    "ball_larus",
    "best_correlated_machine",
    "best_intra_machine",
    "best_loop_exit_machine",
    "classify_branches",
    "duplicate_correlated_branch",
    "evaluate",
    "format_program",
    "load_trace",
    "measure_annotated",
    "parse_function",
    "parse_program",
    "profile_program",
    "replicate_loop_branch",
    "run_program",
    "save_trace",
    "trace_program",
    "tradeoff_curve",
    "two_level_4k",
    "validate_program",
    "__version__",
]
