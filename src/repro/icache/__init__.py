"""Instruction-cache model and the replication cost function."""

from .cost import CostModel, CostReport, evaluate_cost
from .sim import (
    CacheConfig,
    CacheResult,
    assign_addresses,
    simulate_icache,
    walk_fetches,
)

__all__ = [
    "CacheConfig",
    "CacheResult",
    "CostModel",
    "CostReport",
    "assign_addresses",
    "evaluate_cost",
    "simulate_icache",
    "walk_fetches",
]
