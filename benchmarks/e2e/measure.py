"""Measurement primitives shared by every workload.

* **Calibration.**  On a shared VM the machine's speed drifts between
  runs (2x over hours) and wanders within a run: back-to-back samples
  of a fixed pure-Python loop on one vCPU vary by 19% (coefficient of
  variation), with a lag-1 autocorrelation of 0.9 at 35 ms spacing, so
  a slow spell lasts a few tenths of a second.  Every time is rescaled
  to a reference machine on which the loop takes :data:`CALIB_REF_S`,
  using samples of the loop taken next to the work::

      reference seconds = raw seconds x CALIB_REF_S / calib_s

  so throughput scales by ``calib_s / CALIB_REF_S`` and latency by
  ``CALIB_REF_S / calib_s``.  Samples of a shorter loop count as a
  full-loop time in proportion to their iterations.

  - The batch workloads run in this process's main thread, pinned to
    one CPU.  A :class:`Probe` takes a short sample from a ``SIGALRM``
    handler every :data:`PROBE_INTERVAL_S` and at each operation's
    start and end.  Each stretch of work between two samples is
    rescaled with their mean, so the rescaling follows the speed
    within an operation.
  - The service workloads' work runs in other processes on every CPU.
    Sampling during the load would measure the load, so the load is cut
    into slices of 0.1-0.25 s with a short sample on every CPU between
    them, while the fleet is idle.  Each slice is rescaled with the mean
    of the samples before and after it.

  Each set-up repetition is rescaled with the mean of
  :data:`SETUP_CALIBRATIONS` full samples before it and as many after.
  Raw values are reported beside the rescaled ones.
* **Run** collects everything one invocation measures and turns it into
  the end-to-end metrics declared in :data:`END_TO_END`.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

#: Seconds the full calibration loop takes on the reference machine (the
#: 2-vCPU VM this benchmark was sized on, when quiet).  A constant:
#: changing it rescales every timed metric.
CALIB_REF_S = 0.020
CALIB_ITERATIONS = 100_000

#: a probe: 1/20 of the loop (1 ms at reference speed); the batch
#: workloads probe every 50 ms
PROBE_ITERATIONS = 5_000
PROBE_INTERVAL_S = 0.05

#: full calibration samples taken before, and again after, each set-up repetition
SETUP_CALIBRATIONS = 3

#: (name, unit, better) of every end-to-end metric, in print order; their
#: bounds are in BENCHMARK.json.  The quality metrics are deterministic
#: and the same for every seed.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("mispredict_pct", "%", "lower"),
    ("size_factor", "ratio", "lower"),
)


def calibration_loop(iterations: int = CALIB_ITERATIONS) -> float:
    """Time one pass of the fixed calibration loop: integer arithmetic
    and dict updates, the kind of work the IR interpreter and the
    planners do.  Returns the seconds a full pass would have taken."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = acc & 1023
        table[key] = table.get(key, 0) + (i & 7)
    elapsed = time.perf_counter() - started
    if acc < 0 or len(table) > 1024:  # keeps the loop's result live
        raise AssertionError("calibration loop misbehaved")
    return elapsed * CALIB_ITERATIONS / iterations


def calibration_sample(cpus: Sequence[int], iterations: int = CALIB_ITERATIONS) -> float:
    """Mean calibration-loop time over *cpus*, pinning the calling thread
    to each in turn: the vCPUs of a shared VM run at different speeds at
    the same moment, so work spread over several is calibrated on all."""
    if len(cpus) == 1:
        return calibration_loop(iterations)
    original = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(calibration_loop(iterations))
    finally:
        os.sched_setaffinity(0, original)
    return statistics.mean(times)


class Probe:
    """Interleaves calibration samples with the main thread's work.

    :meth:`mark` takes a sample and returns the cumulative raw and
    reference seconds of the work done since the probe started, sample
    time excluded; an operation's time is the difference of two marks.
    While the probe is entered with an *interval*, a ``SIGALRM`` handler
    also samples every *interval* seconds.  Without one (the traced
    phase, whose spans must not contain samples) only the marks sample.
    """

    def __init__(self, interval: Optional[float]) -> None:
        self.interval = interval
        self.raw_s = 0.0
        self.ref_s = 0.0
        #: every sample, as a full-loop time
        self.samples: List[float] = []
        self._last_end: Optional[float] = None
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Probe":
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.mark()
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self.mark()

    def mark(self) -> Tuple[float, float]:
        # A signal can interrupt a mark in progress; the nested one skips.
        if not self._busy:
            self._busy = True
            try:
                started = time.perf_counter()
                sample = calibration_loop(PROBE_ITERATIONS)
                if self._last_end is not None:
                    work = started - self._last_end
                    self.raw_s += work
                    self.ref_s += work * CALIB_REF_S * 2 / (self.samples[-1] + sample)
                self.samples.append(sample)
                self._last_end = time.perf_counter()
            finally:
                self._busy = False
        return self.raw_s, self.ref_s


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(root_pid: int) -> List[int]:
    """*root_pid* and all its descendants, read from ``/proc``."""
    pids, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as stream:
                todo.extend(int(child) for child in stream.read().split())
        except OSError:
            continue
    return pids


def tree_cpu_s(root_pid: int) -> float:
    """User + system CPU seconds of a process tree."""
    ticks = 0
    for pid in process_tree(root_pid):
        try:
            with open(f"/proc/{pid}/stat") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def tree_peak_rss_mb(root_pid: int) -> float:
    """Sum of ``VmHWM`` (peak RSS) over a process tree, in MB."""
    total_kib = 0
    for pid in process_tree(root_pid):
        try:
            with open(f"/proc/{pid}/status") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


@dataclass
class Round:
    """One timed round (batch) or window (service)."""

    #: units of work the throughput counts: events, prefixes or requests
    ops: int = 0
    #: time the work was in progress, raw and at reference speed
    seconds: float = 0.0
    ref_seconds: float = 0.0
    #: (key, raw, reference seconds) of every operation; repeats of one
    #: operation, in this round or others, share its key
    latencies: List[Tuple[Hashable, float, float]] = field(default_factory=list)
    #: calibration samples taken during the round, as full-loop times
    calibrations: List[float] = field(default_factory=list)

    def add(self, raw: float, ref: float, key: Optional[Hashable] = None) -> None:
        """Timed work; with a *key*, one operation whose latency counts."""
        self.seconds += raw
        self.ref_seconds += ref
        if key is not None:
            self.latencies.append((key, raw, ref))

    @property
    def calib_s(self) -> float:
        return statistics.mean(self.calibrations)


def throughput(rounds: Sequence[Round], ref: bool = True) -> float:
    """Work per second over all *rounds*: a run holds only a few rounds,
    and their pooled ratio read 3x steadier than their median."""
    seconds = sum(r.ref_seconds if ref else r.seconds for r in rounds)
    return sum(r.ops for r in rounds) / seconds


def operation_latencies(rounds: Sequence[Round], ref: bool = True) -> List[float]:
    """One latency per operation: the median of its repeats."""
    repeats: Dict[Hashable, List[float]] = {}
    for round_ in rounds:
        for key, raw, reference in round_.latencies:
            repeats.setdefault(key, []).append(reference if ref else raw)
    return [statistics.median(values) for values in repeats.values()]


class Run:
    """One invocation's settings plus everything it measures, turned
    into metrics at the end."""

    def __init__(
        self, workload: str, seed: int, seconds: float, smoke: bool, traced: bool, workdir: str
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.traced = traced
        self.workdir = workdir
        #: the one source of every seeded choice (offsets, key order)
        self.rng = random.Random(seed)
        #: set-up repetitions; setup_s is their median
        self.setups = 1 if smoke else 3
        #: each set-up repetition, in reference and raw seconds
        self.setup_s: List[float] = []
        self.raw_setup_s: List[float] = []
        self.rounds: List[Round] = []
        self.calibrations: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.quality: Dict[str, float] = {}
        self.rss_mb: Optional[float] = None
        self.details: Dict[str, object] = {}
        #: called with True when timed work starts, False when it stops (tracing)
        self.on_timed: Optional[Callable[[bool], None]] = None
        #: CPUs the timed work runs on, and so the calibration samples
        self.cpus = tuple(sorted(os.sched_getaffinity(0)))

    def fresh_dir(self) -> str:
        """A new empty directory under this run's work directory."""
        return tempfile.mkdtemp(dir=self.workdir)

    # -- correctness -----------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a false *ok* counts it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    # -- timing ----------------------------------------------------------------

    def pin(self) -> None:
        """Keep this single-threaded process, and its calibration, on one CPU."""
        cpu = min(self.cpus)
        os.sched_setaffinity(0, {cpu})
        self.cpus = (cpu,)

    def calibrate(self, iterations: int = CALIB_ITERATIONS) -> float:
        value = calibration_sample(self.cpus, iterations)
        self.calibrations.append(value)
        return value

    def timed(self, on: bool) -> None:
        if self.on_timed:
            self.on_timed(on)

    @contextlib.contextmanager
    def setup(self) -> Iterator[None]:
        """Time one repetition of the workload's set-up, calibrated with
        the mean of SETUP_CALIBRATIONS samples before and as many after."""
        samples = [self.calibrate() for _ in range(SETUP_CALIBRATIONS)]
        started = time.perf_counter()
        yield
        seconds = time.perf_counter() - started
        samples += [self.calibrate() for _ in range(SETUP_CALIBRATIONS)]
        self.raw_setup_s.append(seconds)
        self.setup_s.append(seconds * CALIB_REF_S / statistics.mean(samples))

    @property
    def calib_s(self) -> float:
        return statistics.median(self.calibrations)

    # -- results -----------------------------------------------------------------

    def timed_metrics(self, ref: bool = True) -> Dict[str, float]:
        deciles = statistics.quantiles(operation_latencies(self.rounds, ref), n=10, method="inclusive")
        return {
            "ops_per_s": throughput(self.rounds, ref),
            "p50_ms": deciles[4] * 1e3,
            "p90_ms": deciles[8] * 1e3,
        }

    def metrics(self) -> Dict[str, float]:
        return dict(
            self.timed_metrics(),
            setup_s=statistics.median(self.setup_s),
            peak_rss_mb=self.rss_mb if self.rss_mb is not None else peak_rss_mb(),
            mispredict_pct=self.quality["mispredict_pct"],
            size_factor=self.quality["size_factor"],
        )

    def raw(self) -> Dict[str, object]:
        """Un-normalised values and sample counts, reported beside the metrics."""
        return dict(
            self.timed_metrics(ref=False),
            calib_s=self.calib_s,
            calib_ref_s=CALIB_REF_S,
            setup_s=statistics.median(self.raw_setup_s),
            setups=self.raw_setup_s,
            rounds=[
                {"ops": r.ops, "seconds": r.seconds, "ref_seconds": r.ref_seconds, "calib_s": r.calib_s}
                for r in self.rounds
            ],
            samples={
                "setup_s": len(self.setup_s),
                "rounds": len(self.rounds),
                "operations": len(operation_latencies(self.rounds)),
                "timed_operations": sum(len(r.latencies) for r in self.rounds),
                "calibrations": len(self.calibrations),
            },
        )
