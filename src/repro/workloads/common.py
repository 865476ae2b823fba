"""Shared building blocks for the synthetic workloads.

Every workload embeds a small linear congruential generator so that its
branch behaviour is deterministic for a given seed argument without
needing long input streams.  ``add_lcg`` emits the generator function
into a program; callers thread the state register through their code.
"""

from __future__ import annotations

from ..ir import ProgramBuilder

#: Classic glibc LCG constants.
LCG_MULTIPLIER = 1103515245
LCG_INCREMENT = 12345
LCG_MASK = 0x7FFFFFFF


def add_lcg(pb: ProgramBuilder) -> None:
    """Emit ``func lcg(state) -> next_state`` into the program."""
    fb = pb.function("lcg", ["state"])
    product = fb.mul("state", LCG_MULTIPLIER)
    summed = fb.add(product, LCG_INCREMENT)
    fb.binop("and", summed, LCG_MASK, "state")
    fb.ret("state")


#: Memory cell where the global generator keeps its state.
GLOBAL_SEED_ADDR = 8


def add_global_lcg(pb: ProgramBuilder, addr: int = GLOBAL_SEED_ADDR) -> None:
    """Emit ``func grand() -> value``: a generator whose state lives in
    memory, so recursive workloads need not thread it through calls.

    Returns the upper 15 bits of the state (``0 .. 32767``); callers
    reduce it with ``mod``.  ``func gseed(seed)`` initialises the state.
    """
    fb = pb.function("gseed", ["seed"])
    fb.store(addr, "seed")
    fb.ret()

    fb = pb.function("grand", [])
    state = fb.load(addr)
    product = fb.mul(state, LCG_MULTIPLIER)
    summed = fb.add(product, LCG_INCREMENT)
    masked = fb.binop("and", summed, LCG_MASK)
    fb.store(addr, masked)
    value = fb.shr(masked, 16)
    fb.ret(value)


def reference_global_lcg(seed: int):
    """Host-side twin of the IR ``grand`` function."""
    state = seed & LCG_MASK

    def grand() -> int:
        nonlocal state
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & LCG_MASK
        return state >> 16

    return grand


def reference_lcg(seed: int):
    """Host-side generator matching the IR ``lcg`` function.

    Used by tests to predict workload behaviour independently.
    """
    state = seed & LCG_MASK

    def step() -> int:
        nonlocal state
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & LCG_MASK
        return state

    return step
