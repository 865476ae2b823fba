"""Code replication: transforms, planning, and trade-off analysis."""

from .annotate import (
    AnnotatedMeasurement,
    annotate_profile_predictions,
    clear_predictions,
    fold_mispredictions,
    measure_annotated,
)
from .apply import ReplicationReport, apply_replication
from .joint import (
    collect_joint_tables,
    loop_membership,
    plan_joint_machines,
    replicate_loop_joint,
)
from .loop_transform import LoopReplicationResult, replicate_loop_branch
from .planner import BranchPlan, PlanOption, ReplicationPlanner
from .tail_duplicate import (
    TailDuplicationResult,
    duplicate_correlated_branch,
    estimate_duplication_cost,
)
from .tradeoff import TradeoffPoint, tradeoff_curve

__all__ = [
    "AnnotatedMeasurement",
    "BranchPlan",
    "LoopReplicationResult",
    "PlanOption",
    "ReplicationPlanner",
    "ReplicationReport",
    "TailDuplicationResult",
    "TradeoffPoint",
    "annotate_profile_predictions",
    "apply_replication",
    "clear_predictions",
    "collect_joint_tables",
    "duplicate_correlated_branch",
    "estimate_duplication_cost",
    "fold_mispredictions",
    "loop_membership",
    "measure_annotated",
    "plan_joint_machines",
    "replicate_loop_branch",
    "replicate_loop_joint",
    "tradeoff_curve",
]
