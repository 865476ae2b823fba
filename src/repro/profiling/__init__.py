"""Profiling: trace collection, trace files, pattern tables."""

from .collect import instrumented_run, profile_program, trace_program
from .patterns import PatternTable, ProfileData
from .profilefile import (
    ProfileFormatError,
    load_profile,
    profile_from_bytes,
    profile_to_bytes,
    save_profile,
)
from .trace import Trace
from .tracefile import (
    TraceFormatError,
    load_trace,
    save_trace,
    trace_from_bytes,
    trace_to_bytes,
)

__all__ = [
    "PatternTable",
    "ProfileFormatError",
    "instrumented_run",
    "load_profile",
    "profile_from_bytes",
    "profile_program",
    "profile_to_bytes",
    "save_profile",
    "ProfileData",
    "Trace",
    "TraceFormatError",
    "load_trace",
    "save_trace",
    "trace_from_bytes",
    "trace_to_bytes",
    "trace_program",
]
