"""Synthetic workloads standing in for the paper's benchmark suite."""

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
from .artifacts import (
    RunArtifacts,
    clear_disk_cache,
    clear_memory_cache,
    generate_artifacts,
    get_artifacts,
)
from .benchmarks import (
    BENCHMARK_NAMES,
    WORKLOADS,
    Workload,
    get_profile,
    get_program,
    get_run_steps,
    get_trace,
    get_workload,
)
from .common import (
    add_global_lcg,
    add_lcg,
    reference_global_lcg,
    reference_lcg,
)
from .generators import random_program

__all__ = [
    "BENCHMARK_NAMES",
    "RunArtifacts",
    "WORKLOADS",
    "Workload",
    "add_global_lcg",
    "add_lcg",
    "clear_disk_cache",
    "clear_memory_cache",
    "generate_artifacts",
    "get_artifacts",
    "get_profile",
    "get_program",
    "get_run_steps",
    "get_trace",
    "get_workload",
    "random_program",
    "reference_global_lcg",
    "reference_lcg",
]
