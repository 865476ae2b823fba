"""Semi-static (profile-based) prediction strategies (Sections 2.2, 3).

All of these are trained from a :class:`~repro.profiling.ProfileData`
and then evaluated on a trace.  During evaluation they still track
history registers — not as learned state (the predictions are frozen at
"compile time") but because the *pattern* the program is in selects
which frozen prediction applies.  Code replication is exactly the
technique that realises this pattern-tracking in the program counter.

Strategies:

* :class:`ProfilePredictor` — "predict the most frequent direction".
* :class:`CorrelationPredictor` — "predict using one global k-bit
  history register" (the *correlated branch strategy*).
* :class:`LoopPredictor` — "use k-bit history registers for every
  branch" (the *loop branch strategy*).
* :class:`LoopCorrelationPredictor` — per branch, "the best of 1-bit
  correlation and 9-bit loop".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir import BranchSite
from ..profiling import ProfileData
from .base import Predictor
from .kernels import lut_misses


def _majority_map(counts: Dict[int, list]) -> Dict[int, bool]:
    """pattern -> majority direction (ties predict taken)."""
    return {pattern: entry[1] >= entry[0] for pattern, entry in counts.items()}


def _pattern_lut(np, sites, tables, bias, bits: int, default: bool):
    """The frozen lookup as one ``(site, pattern) -> guess`` uint8 grid.

    Unprofiled sites' rows are the *default* guess everywhere — a fixed
    guess ignores the history, so a constant row reproduces it exactly.
    """
    mask = (1 << bits) - 1
    lut = np.full((len(sites), 1 << bits), 1 if default else 0, dtype=np.uint8)
    for sid, site in enumerate(sites):
        table = tables.get(site)
        if table is None:
            continue
        row = lut[sid]
        row[:] = 1 if bias[site] else 0
        for pattern, guess in table.items():
            if 0 <= pattern <= mask:
                row[pattern] = 1 if guess else 0
    return lut


def _cached_flat_lut(predictor, np, columns):
    """The predictor's flat ``(site << bits) | pattern -> guess`` lookup
    for this trace's site list, built once per (predictor, site list).

    The tables are frozen at construction, so the grid only varies with
    the trace's interning order; keying by the site tuple keeps repeated
    evaluations (other traces, repeated runs) from re-walking the
    Python-dict tables.
    """
    key = tuple(columns.sites)
    cache = predictor.__dict__.setdefault("_lut_cache", {})
    lut = cache.get(key)
    if lut is None:
        lut = _pattern_lut(
            np,
            columns.sites,
            predictor._tables,
            predictor._bias,
            predictor.bits,
            predictor.default,
        ).reshape(-1)
        cache[key] = lut
    return lut


def _default_wrongs(columns, sid: int, default: bool) -> int:
    """Mispredictions of a fixed *default* guess at site *sid*."""
    executions = columns.site_executions().get(sid, 0)
    taken = columns.site_taken()[sid]
    return executions - taken if default else taken


class ProfilePredictor(Predictor):
    """Per-branch most-frequent direction from the training profile."""

    order_independent = True

    def __init__(self, profile: ProfileData, default: bool = True) -> None:
        super().__init__("profile")
        self.default = default
        self._bias: Dict[BranchSite, bool] = {
            site: counts[1] >= counts[0] for site, counts in profile.totals.items()
        }

    def predict(self, site: BranchSite) -> bool:
        return self._bias.get(site, self.default)


class CorrelationPredictor(Predictor):
    """k-bit *global* history, per-branch pattern table, frozen majority
    predictions.  Falls back to the branch bias on unseen patterns."""

    def __init__(self, profile: ProfileData, bits: int = 1, default: bool = True) -> None:
        if bits > profile.global_bits:
            raise ValueError(
                f"profile holds {profile.global_bits} global history bits, "
                f"requested {bits}"
            )
        super().__init__(f"{bits}-bit-correlation")
        self.bits = bits
        self.default = default
        self._mask = (1 << bits) - 1
        self._tables: Dict[BranchSite, Dict[int, bool]] = {}
        self._bias: Dict[BranchSite, bool] = {}
        for site, table in profile.global_tables.items():
            short = table.marginalize(bits)
            self._tables[site] = _majority_map(short.counts)
            not_taken, taken = profile.totals[site]
            self._bias[site] = taken >= not_taken
        self._history = 0

    def reset(self) -> None:
        self._history = 0

    def predict(self, site: BranchSite) -> bool:
        table = self._tables.get(site)
        if table is not None:
            guess = table.get(self._history & self._mask)
            if guess is not None:
                return guess
            return self._bias[site]
        return self.default

    def update(self, site: BranchSite, taken: bool) -> None:
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._mask

    def step_batch(self, columns) -> List[int]:
        # One *global* register: its contents before event t are just
        # the previous k outcomes of the whole stream, so the entire
        # history column vectorizes and the frozen tables become one
        # (site, pattern) lookup.
        if columns.n_events == 0:
            return [0] * columns.n_sites
        np = columns.np
        lut = _cached_flat_lut(self, np, columns)
        return lut_misses(np, columns, lut, "global", self.bits)


class LoopPredictor(Predictor):
    """k-bit *local* (per-branch) history, frozen majority predictions."""

    def __init__(self, profile: ProfileData, bits: int = 9, default: bool = True) -> None:
        if bits > profile.local_bits:
            raise ValueError(
                f"profile holds {profile.local_bits} local history bits, "
                f"requested {bits}"
            )
        super().__init__(f"{bits}-bit-loop")
        self.bits = bits
        self.default = default
        self._mask = (1 << bits) - 1
        self._tables: Dict[BranchSite, Dict[int, bool]] = {}
        self._bias: Dict[BranchSite, bool] = {}
        for site, table in profile.local.items():
            short = table.marginalize(bits)
            self._tables[site] = _majority_map(short.counts)
            not_taken, taken = profile.totals[site]
            self._bias[site] = taken >= not_taken
        self._histories: Dict[BranchSite, int] = {}

    def reset(self) -> None:
        self._histories = {}

    def predict(self, site: BranchSite) -> bool:
        table = self._tables.get(site)
        if table is None:
            return self.default
        guess = table.get(self._histories.get(site, 0))
        if guess is None:
            return self._bias[site]
        return guess

    def update(self, site: BranchSite, taken: bool) -> None:
        history = self._histories.get(site, 0)
        self._histories[site] = ((history << 1) | (1 if taken else 0)) & self._mask

    def step_batch(self, columns) -> List[int]:
        # One register *per branch*: grouping the direction column by
        # site makes every register's history a within-group window, so
        # one boundary-masked pack scores all of them together.
        if columns.n_events == 0:
            return [0] * columns.n_sites
        np = columns.np
        lut = _cached_flat_lut(self, np, columns)
        return lut_misses(np, columns, lut, "local", self.bits)


class LoopCorrelationPredictor(Predictor):
    """Per branch, the better of the correlation and loop strategies.

    The choice is made at training time by comparing, per site, the
    number of correct predictions each strategy would have achieved on
    the training trace (per-pattern majority counts).
    """

    def __init__(
        self,
        profile: ProfileData,
        correlation_bits: int = 1,
        loop_bits: int = 9,
        default: bool = True,
    ) -> None:
        super().__init__("loop-correlation")
        self.default = default
        self.correlation = CorrelationPredictor(profile, correlation_bits, default)
        self.loop = LoopPredictor(profile, loop_bits, default)
        self.choice: Dict[BranchSite, str] = {}
        for site in profile.totals:
            corr = (
                profile.global_tables[site]
                .marginalize(correlation_bits)
                .correct_if_per_pattern()
            )
            loop = (
                profile.local[site].marginalize(loop_bits).correct_if_per_pattern()
            )
            self.choice[site] = "loop" if loop >= corr else "correlation"

    def reset(self) -> None:
        self.correlation.reset()
        self.loop.reset()

    def predict(self, site: BranchSite) -> bool:
        choice = self.choice.get(site)
        if choice == "loop":
            return self.loop.predict(site)
        if choice == "correlation":
            return self.correlation.predict(site)
        return self.default

    def update(self, site: BranchSite, taken: bool) -> None:
        self.correlation.update(site, taken)
        self.loop.update(site, taken)

    def step_batch(self, columns) -> List[int]:
        # Each sub-strategy's histories evolve from outcomes alone, so
        # their full kernels run independently; only the chosen
        # strategy's count survives per site.
        loop_counts = self.loop.step_batch(columns)
        corr_counts = self.correlation.step_batch(columns)
        counts = [0] * columns.n_sites
        for sid, site in enumerate(columns.sites):
            choice = self.choice.get(site)
            if choice == "loop":
                counts[sid] = loop_counts[sid]
            elif choice == "correlation":
                counts[sid] = corr_counts[sid]
            else:
                counts[sid] = _default_wrongs(columns, sid, self.default)
        return counts

    def improved_sites(self, profile: ProfileData) -> Dict[BranchSite, int]:
        """Sites where the chosen strategy beats plain profile on the
        training data, with the number of extra correct predictions —
        the paper's "improved branches" row in Table 1."""
        improved: Dict[BranchSite, int] = {}
        for site in profile.totals:
            base = max(profile.totals[site])
            if self.choice[site] == "loop":
                best = (
                    profile.local[site]
                    .marginalize(self.loop.bits)
                    .correct_if_per_pattern()
                )
            else:
                best = (
                    profile.global_tables[site]
                    .marginalize(self.correlation.bits)
                    .correct_if_per_pattern()
                )
            if best > base:
                improved[site] = best - base
        return improved


def semistatic_suite(profile: ProfileData) -> Tuple[Predictor, ...]:
    """The semi-static strategies of Table 1, in row order."""
    return (
        ProfilePredictor(profile),
        CorrelationPredictor(profile, 1),
        LoopPredictor(profile, 1),
        LoopPredictor(profile, 9),
        LoopCorrelationPredictor(profile),
    )
