"""Profile-guided code positioning and branch alignment."""

from .edges import Edge, EdgeProfile, edge_profile_from_trace, profile_edges
from .rotation import rotatable_loops, rotate_loop, rotate_program
from .positioning import (
    align_branches,
    apply_layout,
    build_chains,
    layout_program,
    order_blocks,
    taken_transfer_stats,
    TransferStats,
)

__all__ = [
    "Edge",
    "EdgeProfile",
    "align_branches",
    "apply_layout",
    "build_chains",
    "edge_profile_from_trace",
    "layout_program",
    "order_blocks",
    "profile_edges",
    "rotatable_loops",
    "rotate_loop",
    "rotate_program",
    "taken_transfer_stats",
    "TransferStats",
]
