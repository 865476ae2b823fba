"""The replication cost function (Section 5's closing argument).

"A cost function will calculate whether the increase in code size
(negative impact on instruction cache miss rate) is worth the gain in
execution time."

The estimated cycle count of a run combines three measurable terms:

    cycles = instructions
           + misprediction_penalty x mispredicted branches
           + miss_penalty x instruction cache misses

``evaluate_cost`` measures all three on a concrete (possibly
replicated) program from one run that logs both its branches and its
transfers, so replication plans can be compared end to end: more
states -> fewer mispredictions but more cache misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..interp import Machine
from ..ir import Program
from ..replication import fold_mispredictions
from .sim import CacheConfig, CacheResult, walk_fetches


@dataclass(frozen=True)
class CostModel:
    """Penalty weights, in cycles."""

    misprediction_penalty: int = 4
    miss_penalty: int = 20

    def cycles(self, instructions: int, mispredictions: int, misses: int) -> int:
        return (
            instructions
            + self.misprediction_penalty * mispredictions
            + self.miss_penalty * misses
        )


@dataclass
class CostReport:
    """Everything the cost function measured for one program."""

    instructions: int
    branch_events: int
    mispredictions: int
    cache: CacheResult
    model: CostModel

    @property
    def cycles(self) -> int:
        return self.model.cycles(
            self.instructions, self.mispredictions, self.cache.misses
        )

    @property
    def misprediction_rate(self) -> float:
        return (
            self.mispredictions / self.branch_events if self.branch_events else 0.0
        )

    @property
    def cycles_per_instruction(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


def evaluate_cost(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    cache_config: CacheConfig = CacheConfig(),
    model: CostModel = CostModel(),
) -> CostReport:
    """Measure instructions, mispredictions and i-cache misses of one
    annotated program run and combine them into estimated cycles.

    The run logs its branches and its transfers;
    :func:`~repro.replication.fold_mispredictions` and
    :func:`walk_fetches` fold the two logs."""
    machine = Machine(program, input_values, log_branches=True, log_transfers=True)
    result = machine.run(*args)
    measurement = fold_mispredictions(machine.branch_log, result)
    cache = walk_fetches(program, cache_config, machine.transfer_log)
    return CostReport(
        instructions=result.steps,
        branch_events=measurement.events,
        mispredictions=measurement.mispredictions,
        cache=cache,
        model=model,
    )
