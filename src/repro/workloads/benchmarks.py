"""The benchmark registry: the paper's eight programs, synthesised.

Each entry mirrors one program of the paper's suite (Section 3).  The
stand-ins generate real branch traces through the interpreter; DESIGN.md
documents why each is a behavioural substitute for the original.

``get_trace``/``get_profile``/``get_run_steps`` all derive from the
**run artifacts** of :mod:`repro.workloads.artifacts` — a single
instrumented interpreter pass per (name, scale, seed_offset), memoised
in memory and persisted to the on-disk artifact cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..ir import Program
from ..profiling import ProfileData, Trace
from . import (
    abalone,
    c_compiler,
    compress,
    doduc,
    ghostview,
    predict,
    prolog,
    scheduler,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark: a program builder plus its input convention."""

    name: str
    description: str
    build: Callable[[], Program]
    default_args: Callable[[int], Tuple[Sequence[int], Sequence[int]]]
    #: index into the argument tuple of the workload's RNG seed — the
    #: parameter the cross-dataset experiments perturb.  Declared
    #: explicitly so seed offsetting never silently lands on a
    #: size/iteration argument.
    seed_arg: int

    def seeded_args(
        self, scale: int = 1, seed_offset: int = 0
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``default_args(scale)`` with *seed_offset* applied to the
        declared seed parameter."""
        args, input_values = self.default_args(scale)
        args = tuple(args)
        if seed_offset:
            if not (-len(args) <= self.seed_arg < len(args)):
                raise IndexError(
                    f"workload {self.name!r} declares seed_arg={self.seed_arg} "
                    f"but takes only {len(args)} arguments"
                )
            index = self.seed_arg % len(args)
            args = (
                args[:index] + (args[index] + seed_offset,) + args[index + 1 :]
            )
        return args, tuple(input_values)


#: The paper's benchmark suite, in its presentation order.
WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload(
            "abalone",
            "a board game employing alpha-beta search",
            abalone.build,
            abalone.default_args,
            seed_arg=1,
        ),
        Workload(
            "c-compiler",
            "the lcc compiler front end of Fraser & Hanson",
            c_compiler.build,
            c_compiler.default_args,
            seed_arg=1,
        ),
        Workload(
            "compress",
            "a file compression utility (SPEC)",
            compress.build,
            compress.default_args,
            seed_arg=1,
        ),
        Workload(
            "ghostview",
            "an X postscript previewer",
            ghostview.build,
            ghostview.default_args,
            seed_arg=1,
        ),
        Workload(
            "predict",
            "our profiling and trace tool",
            predict.build,
            predict.default_args,
            seed_arg=1,
        ),
        Workload(
            "prolog",
            "the miniVIP Prolog interpreter",
            prolog.build,
            prolog.default_args,
            seed_arg=1,
        ),
        Workload(
            "scheduler",
            "an instruction scheduler",
            scheduler.build,
            scheduler.default_args,
            seed_arg=1,
        ),
        Workload(
            "doduc",
            "hydrocode simulation (floating point) (SPEC)",
            doduc.build,
            doduc.default_args,
            seed_arg=1,
        ),
    )
}

BENCHMARK_NAMES: List[str] = list(WORKLOADS)


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None


@functools.lru_cache(maxsize=None)
def get_program(name: str) -> Program:
    """The (cached, shared — treat as read-only) program of *name*."""
    return get_workload(name).build()


def get_trace(name: str, scale: int = 1, seed_offset: int = 0) -> Trace:
    """Trace of one run of *name* at *scale* (≈ scale × 10k branches).

    ``seed_offset`` perturbs the workload's declared seed argument —
    used by the cross-dataset experiments to produce a *different* run
    of the same program.
    """
    from .artifacts import get_artifacts

    return get_artifacts(name, scale=scale, seed_offset=seed_offset).trace


def get_run_steps(name: str, scale: int = 1, seed_offset: int = 0) -> int:
    """Executed instruction count of the reference run (used by the
    Fisher/Freudenberger instructions-per-misprediction metric)."""
    from .artifacts import get_artifacts

    return get_artifacts(name, scale=scale, seed_offset=seed_offset).steps


def get_profile(name: str, scale: int = 1, seed_offset: int = 0) -> ProfileData:
    """Cached profile data for a workload trace, with the frame-local
    path tables of the same single-pass artifacts.  One profile per run,
    however the call spells its arguments."""
    return _profile(name, scale, seed_offset)


@functools.lru_cache(maxsize=32)
def _profile(name: str, scale: int, seed_offset: int) -> ProfileData:
    from ..obs import OBS
    from .artifacts import HISTORY_BITS, get_artifacts

    artifacts = get_artifacts(name, scale=scale, seed_offset=seed_offset)
    with OBS.span(
        "profiling.build", benchmark=name, scale=scale, seed_offset=seed_offset
    ) as span:
        profile = ProfileData.from_trace(artifacts.trace, global_bits=HISTORY_BITS)
        profile.path_tables = artifacts.path_tables
        span.set(sites=len(profile.totals))
    OBS.add("profiling.builds")
    return profile
