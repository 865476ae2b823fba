"""Simple dynamic predictors (Section 2.3, Smith's strategies).

* :class:`LastDirection` — "a branch will take the same direction as on
  its last execution".
* :class:`SaturatingCounter` — an n-bit saturating up/down counter per
  branch; predict taken while the counter is in the upper half.  The
  paper uses the classic 2-bit variant.

Both use unbounded per-site state (one entry per static branch) — the
idealised, aliasing-free version, which is what the paper compares
against.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir import BranchSite
from .base import Predictor
from .kernels import saturating_run_wrongs


def _grouped_direction_runs(columns):
    """``(run_starts, run_lengths)`` of the site-grouped direction
    column — the run partition both per-site counter kernels score, so
    it is computed once per snapshot and shared."""
    np = columns.np

    def build():
        _, grouped_dirs, new_site = columns.grouped()
        run_break = np.array(new_site, dtype=bool, copy=True)
        run_break[1:] |= grouped_dirs[1:] != grouped_dirs[:-1]
        run_starts = np.flatnonzero(run_break)
        run_lengths = np.diff(run_starts, append=columns.n_events)
        return run_starts, run_lengths

    return columns.cached(("gdir-runs",), build)


class LastDirection(Predictor):
    """Predict the direction taken on the previous execution."""

    def __init__(self, initial: bool = True) -> None:
        super().__init__("last-direction")
        self.initial = initial
        self._last: Dict[BranchSite, bool] = {}

    def reset(self) -> None:
        self._last = {}

    def predict(self, site: BranchSite) -> bool:
        return self._last.get(site, self.initial)

    def update(self, site: BranchSite, taken: bool) -> None:
        self._last[site] = taken

    def step_batch(self, columns) -> List[int]:
        # Mispredictions are exactly the direction-run starts of each
        # site's outcome sequence: every non-first run's first event
        # differs from the previous outcome, and a site's first event
        # mispredicts when it differs from the initial guess.  Runs,
        # not events — no per-event state needed at all.
        if columns.n_events == 0:
            return [0] * columns.n_sites
        initial = 1 if self.initial else 0
        sorted_ids, grouped_dirs, new_site = columns.grouped()
        run_starts, _ = _grouped_direction_runs(columns)
        wrong = grouped_dirs[run_starts] != initial
        wrong |= ~new_site[run_starts]
        return columns.np.bincount(
            sorted_ids[run_starts[wrong]], minlength=columns.n_sites
        ).tolist()


class SaturatingCounter(Predictor):
    """n-bit saturating counter per branch (default: the 2-bit scheme)."""

    def __init__(self, bits: int = 2) -> None:
        if bits < 1:
            raise ValueError("counter needs at least one bit")
        super().__init__(f"{bits}-bit-counter")
        self.bits = bits
        self.max = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        # Start weakly taken, the conventional initialisation.
        self.initial = self.threshold
        self._counters: Dict[BranchSite, int] = {}

    def reset(self) -> None:
        self._counters = {}

    def predict(self, site: BranchSite) -> bool:
        return self._counters.get(site, self.initial) >= self.threshold

    def update(self, site: BranchSite, taken: bool) -> None:
        value = self._counters.get(site, self.initial)
        if taken:
            if value < self.max:
                self._counters[site] = value + 1
        else:
            if value > 0:
                self._counters[site] = value - 1

    def step_batch(self, columns) -> List[int]:
        # One independent counter per site: group the direction column
        # by site and score every counter with the shared closed-form
        # run kernel (see repro.predictors.kernels).  Runs never span
        # sites here, so per-run wrong counts attribute by the run's
        # site directly — O(runs), no per-event expansion.
        if columns.n_events == 0:
            return [0] * columns.n_sites
        np = columns.np
        sorted_ids, grouped_dirs, new_site = columns.grouped()
        run_starts, _, wrongs = saturating_run_wrongs(
            np,
            new_site,
            grouped_dirs,
            self.threshold,
            self.max,
            self.initial,
            runs=_grouped_direction_runs(columns),
        )
        return np.bincount(
            np.repeat(sorted_ids[run_starts], wrongs),
            minlength=columns.n_sites,
        ).tolist()
