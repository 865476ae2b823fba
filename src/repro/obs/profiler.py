"""A stdlib sampling wall-clock profiler (collapsed-stack output).

``sys._current_frames()`` hands back every live thread's current frame
without stopping the world; ticking it at ~100 Hz and counting the
observed stacks yields a wall-clock profile whose overhead is a few
percent of one core *only while sampling* — safe to expose on a live
daemon (``GET /debug/profile?seconds=N``) and to wrap around offline
experiment runs (``python -m repro profile -- <experiment>``).

Output is Brendan Gregg's *collapsed stack* format — one line per
distinct stack, outermost frame first, frames joined by ``;``, a
trailing sample count — the input format of every flamegraph renderer
(``flamegraph.pl``, speedscope, pyroscope).

Safety notes (also in docs/architecture.md):

* sampling is **serialised** per process: a second concurrent profile
  request is refused (:class:`ProfilerBusy` → HTTP 429) rather than
  doubling the overhead;
* duration is clamped to :data:`MAX_SECONDS` so a typo'd query string
  cannot pin the sampler (and its request thread) for an hour;
* the sampler only *reads* frames — it never suspends threads, so a
  sample can straddle a context switch; counts are statistical, which
  is the point.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from typing import Dict, Iterable, Optional, Tuple

#: Default sampling interval: 100 Hz.
DEFAULT_INTERVAL = 0.01

#: Default and maximum profile durations (seconds) for the HTTP endpoint.
DEFAULT_SECONDS = 2.0
MAX_SECONDS = 30.0

#: One profile at a time per process.
_PROFILE_LOCK = threading.Lock()

Stack = Tuple[str, ...]


class ProfilerBusy(RuntimeError):
    """Another profile is already running in this process."""


def _frame_label(frame) -> str:
    """``module:function`` for one frame (basename keeps lines short)."""
    code = frame.f_code
    module = os.path.basename(code.co_filename)
    if module.endswith(".py"):
        module = module[:-3]
    return f"{module}:{code.co_name}"


def _collect_stacks(
    counts: "Counter[Stack]", skip_threads: Iterable[int]
) -> None:
    """One sampling tick: fold every thread's current stack into *counts*."""
    skip = set(skip_threads)
    skip.add(threading.get_ident())
    for tid, frame in sys._current_frames().items():
        if tid in skip:
            continue
        stack = []
        while frame is not None:
            stack.append(_frame_label(frame))
            frame = frame.f_back
        if stack:
            counts[tuple(reversed(stack))] += 1


def collapsed_stacks(counts: Dict[Stack, int]) -> str:
    """*counts* in collapsed-stack text form, heaviest stacks first."""
    lines = [
        ";".join(stack) + f" {count}"
        for stack, count in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def profile_collapsed(
    seconds: float = DEFAULT_SECONDS, interval: float = DEFAULT_INTERVAL
) -> str:
    """Sample for *seconds* (clamped to [0.1, MAX_SECONDS]) and return
    collapsed-stack text — the ``GET /debug/profile`` body.

    Sampling runs on a helper thread so the *calling* thread is
    observed too (on the daemon that thread is one of the request
    pool — seeing it park in this sleep is truthful).
    """
    seconds = min(MAX_SECONDS, max(0.1, seconds))
    sampler = StackSampler(interval).start()
    try:
        time.sleep(seconds)
    finally:
        return sampler.stop()  # noqa: B012 — stop() must always run


class StackSampler:
    """A background sampler wrapping a foreground workload (offline runs).

    ::

        sampler = StackSampler().start()
        run_the_experiment()
        text = sampler.stop()

    The sampler thread excludes itself; everything else — including the
    calling thread running the workload — is sampled.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.interval = interval
        self.counts: "Counter[Stack]" = Counter()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            _collect_stacks(self.counts, ())

    def start(self) -> "StackSampler":
        if not _PROFILE_LOCK.acquire(blocking=False):
            raise ProfilerBusy("a profile is already running in this process")
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> str:
        """Stop sampling; returns the collapsed-stack text."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        _PROFILE_LOCK.release()
        return collapsed_stacks(self.counts)
