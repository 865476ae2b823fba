"""Profile-guided code positioning and branch alignment."""

from .edges import (
    Edge,
    EdgeProfile,
    edge_profiles,
    run_edges,
)
from .rotation import rotatable_loops, rotate_loop, rotate_program
from .positioning import (
    align_branches,
    apply_layout,
    build_chains,
    layout_program,
    order_blocks,
    transfer_stats,
    TransferStats,
)

__all__ = [
    "Edge",
    "EdgeProfile",
    "align_branches",
    "apply_layout",
    "build_chains",
    "edge_profiles",
    "layout_program",
    "order_blocks",
    "rotatable_loops",
    "rotate_loop",
    "rotate_program",
    "run_edges",
    "transfer_stats",
    "TransferStats",
]
