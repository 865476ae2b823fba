"""A direct-mapped instruction cache simulator.

The paper's cost function weighs the misprediction gain of replication
against its "negative impact on instruction cache miss rate".  This
module provides that substrate: program text is laid out at one word
per instruction in block-layout order, and a run's transfer log feeds
the fetch stream (every entered block touches its address range)
through a direct-mapped cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..interp import Machine
from ..interp.machine import TransferLog
from ..ir import Program
from ..obs import OBS


@dataclass(frozen=True)
class CacheConfig:
    """Shape of a direct-mapped instruction cache."""

    lines: int = 64
    line_words: int = 8

    def __post_init__(self) -> None:
        if self.lines < 1 or self.line_words < 1:
            raise ValueError("cache dimensions must be positive")
        if self.lines & (self.lines - 1) or self.line_words & (self.line_words - 1):
            raise ValueError("cache dimensions must be powers of two")


def assign_addresses(program: Program) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Lay the program out at one word per instruction.

    Functions are placed in registry order, blocks in their (layout)
    order.  Returns ``(function, label) -> (start, end)`` half-open
    word ranges.
    """
    addresses: Dict[Tuple[str, str], Tuple[int, int]] = {}
    cursor = 0
    for function in program:
        for block in function:
            size = block.size()
            addresses[(function.name, block.label)] = (cursor, cursor + size)
            cursor += size
    return addresses


@dataclass
class CacheResult:
    """Outcome of simulating one run's fetch stream."""

    config: CacheConfig
    accesses: int
    misses: int
    program_words: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def simulate_icache(
    program: Program,
    config: CacheConfig,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
) -> CacheResult:
    """Run *program*, logging its transfers, and simulate its
    instruction fetch stream with :func:`walk_fetches`."""
    machine = Machine(program, input_values, log_transfers=True)
    machine.run(*args)
    return walk_fetches(program, config, machine.transfer_log)


def walk_fetches(program: Program, config: CacheConfig, log: TransferLog) -> CacheResult:
    """Feed a finished run's fetch stream through a direct-mapped cache.

    Every block the run entered (its *log*) fetches each line its words
    overlap.  Each distinct code's ``(cache index, line address)``
    fetches are worked out once from the layout, and one walk over the
    log checks the tags inline.
    """
    line_words, lines = config.line_words, config.lines
    fetches: Dict[Tuple[str, str], tuple] = {}
    for block, (start, end) in assign_addresses(program).items():
        first = start // line_words
        stop = (end - 1) // line_words + 1 if end > start else first
        fetches[block] = tuple((line % lines, line) for line in range(first, stop))
    tags = [-1] * lines
    accesses = misses = 0
    # The per-fetch path stays uninstrumented; totals are reported once
    # after the walk.
    with OBS.span("icache.simulate", lines=lines, line_words=line_words) as span:
        blocks = {
            code: fetches[function, target]
            for code, (function, _source, target) in log.decode(set(log.codes)).items()
        }
        for code in log.codes:
            block = blocks[code]
            accesses += len(block)
            for index, line in block:
                if tags[index] != line:
                    tags[index] = line
                    misses += 1
        span.set(accesses=accesses, misses=misses)
    OBS.add("icache.simulations")
    OBS.add("icache.accesses", accesses)
    OBS.add("icache.misses", misses)
    return CacheResult(config, accesses, misses, program.size())
