"""Speculative superblock scheduling driven by branch predictions."""

from .deps import (
    DEFAULT_LATENCIES,
    DepGraph,
    build_dep_graph,
    has_side_effect,
    latency_of,
)
from .listsched import Schedule, list_schedule, schedule_instructions
from .superblock import (
    Superblock,
    block_and_edge_counts,
    estimate_program_cycles,
    form_superblocks,
    schedule_blocks_individually,
    schedule_superblock,
)

__all__ = [
    "DEFAULT_LATENCIES",
    "DepGraph",
    "Schedule",
    "Superblock",
    "block_and_edge_counts",
    "build_dep_graph",
    "estimate_program_cycles",
    "form_superblocks",
    "has_side_effect",
    "latency_of",
    "list_schedule",
    "schedule_blocks_individually",
    "schedule_instructions",
    "schedule_superblock",
]
