"""Two-level adaptive branch prediction (Yeh/Patt, Pan/So/Rahmeh).

The first level is a branch-history shift register; the second level a
table of 2-bit saturating counters indexed by the history pattern.
Yeh and Patt's nine variants arise from choosing, independently for the
history registers and the pattern tables, one of three scopes:

* ``"global"``   — one shared register/table (GA*, *g),
* ``"set"``      — one per hash set of branches (SA*, *s),
* ``"peraddr"``  — one per branch (PA*, *p).

``two_level_4k()`` builds the configuration the paper evaluates as
"two level 4K bit": per-set 9-bit history registers (1K sets) with one
shared pattern table of 2-bit counters.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir import BranchSite
from .base import Predictor
from .kernels import (
    group_starts,
    history_pack,
    index_dtype,
    run_bounds,
    saturating_run_wrongs,
    wrong_positions,
)

_SCOPES = ("global", "set", "peraddr")


def _site_hash(site: BranchSite) -> int:
    """Deterministic set-index hash for a branch site.

    Builtin ``hash()`` on strings is randomised per process
    (PYTHONHASHSEED), so using it for set selection would make the
    aliasing pattern — and hence every reported "set"-scope
    misprediction rate — vary from run to run.
    """
    return zlib.crc32(f"{site.function}:{site.block}".encode())


@dataclass(frozen=True)
class TwoLevelConfig:
    """Shape of a two-level predictor."""

    history_scope: str = "set"
    pattern_scope: str = "global"
    history_bits: int = 9
    history_sets: int = 1024
    pattern_sets: int = 1024
    counter_bits: int = 2

    def __post_init__(self) -> None:
        if self.history_scope not in _SCOPES or self.pattern_scope not in _SCOPES:
            raise ValueError(f"scopes must be one of {_SCOPES}")
        if self.history_bits < 1:
            raise ValueError("history_bits must be positive")

    @property
    def yeh_patt_name(self) -> str:
        """Conventional name, e.g. GAg, PAs, SAp."""
        first = {"global": "G", "set": "S", "peraddr": "P"}[self.history_scope]
        second = {"global": "g", "set": "s", "peraddr": "p"}[self.pattern_scope]
        return f"{first}A{second}"

    def cost_bits(self) -> int:
        """Hardware cost estimate in bits (per-address scopes are
        unbounded in software; they are costed at one entry per set)."""
        history_entries = {
            "global": 1,
            "set": self.history_sets,
            "peraddr": self.history_sets,
        }[self.history_scope]
        table_entries = 1 << self.history_bits
        table_count = {
            "global": 1,
            "set": self.pattern_sets,
            "peraddr": self.pattern_sets,
        }[self.pattern_scope]
        return (
            history_entries * self.history_bits
            + table_count * table_entries * self.counter_bits
        )


class TwoLevelPredictor(Predictor):
    """A configurable two-level adaptive predictor."""

    def __init__(self, config: TwoLevelConfig, name: Optional[str] = None) -> None:
        super().__init__(
            name
            if name is not None
            else f"two-level-{config.yeh_patt_name}-{config.history_bits}bit"
        )
        self.config = config
        self._mask = (1 << config.history_bits) - 1
        self._threshold = 1 << (config.counter_bits - 1)
        self._max = (1 << config.counter_bits) - 1
        self._histories: Dict[object, int] = {}
        self._counters: Dict[Tuple[object, int], int] = {}

    def reset(self) -> None:
        self._histories = {}
        self._counters = {}

    def _history_key(self, site: BranchSite) -> object:
        scope = self.config.history_scope
        if scope == "global":
            return 0
        if scope == "set":
            return _site_hash(site) % self.config.history_sets
        return site

    def _pattern_key(self, site: BranchSite) -> object:
        scope = self.config.pattern_scope
        if scope == "global":
            return 0
        if scope == "set":
            return _site_hash(site) % self.config.pattern_sets
        return site

    def predict(self, site: BranchSite) -> bool:
        history = self._histories.get(self._history_key(site), 0)
        counter = self._counters.get(
            (self._pattern_key(site), history), self._threshold
        )
        return counter >= self._threshold

    def update(self, site: BranchSite, taken: bool) -> None:
        hkey = self._history_key(site)
        history = self._histories.get(hkey, 0)
        ckey = (self._pattern_key(site), history)
        counter = self._counters.get(ckey, self._threshold)
        if taken:
            if counter < self._max:
                self._counters[ckey] = counter + 1
        else:
            if counter > 0:
                self._counters[ckey] = counter - 1
        self._histories[hkey] = ((history << 1) | (1 if taken else 0)) & self._mask

    def _scope_keys(self, scope: str, sets: int, n_sites: int, sites) -> List[int]:
        if scope == "global":
            return [0] * n_sites
        if scope == "set":
            return [_site_hash(site) % sets for site in sites]
        return list(range(n_sites))

    def step_batch(self, columns) -> List[int]:
        """Columnar scoring of the two-level predictor.

        The decomposition that makes an *adaptive* predictor batchable:
        history registers depend only on actual outcomes, never on the
        pattern-table counters, so every register's full contents over
        time is just the packed window of the previous outcomes routed
        to it — computable up front by grouping events by history key.
        With histories known, each (pattern entity, history) pair
        addresses an independent 2-bit saturating counter, so grouping
        events by that joint key reduces the second level to the same
        closed-form run kernel the plain saturating counter uses.
        """
        n_sites = columns.n_sites
        n = columns.n_events
        if n == 0:
            return [0] * n_sites
        bits = self.config.history_bits
        threshold, top = self._threshold, self._max
        hkeys = self._scope_keys(
            self.config.history_scope, self.config.history_sets, n_sites, columns.sites
        )
        pkeys = self._scope_keys(
            self.config.pattern_scope, self.config.pattern_sets, n_sites, columns.sites
        )
        np = columns.np
        site_ids = columns.site_ids
        dirs = columns.directions

        # 1. Per-event history-register contents.  Registers depend
        #    only on outcomes, never on the counters, so the global and
        #    per-address scopes read the view's own register columns
        #    (the local one scattered back to event order); the set
        #    scope groups events by set and packs each group's previous
        #    outcomes.  The set key is constant within every site-id
        #    run, so the grouping permutation comes from sorting *runs*
        #    (cheap) rather than argsorting the event column; the result
        #    is cached on the snapshot and shared by every variant with
        #    the same first level.
        def build_histories():
            run_sites, run_starts, run_lengths = columns.runs()
            hkey_table = np.asarray(hkeys, dtype=np.int64)
            run_hkeys = np.take(hkey_table, run_sites)
            # Stable integer argsort is a radix sort: the narrowest key
            # dtype that fits directly buys passes.
            sort_keys = (
                run_hkeys.astype(np.uint16)
                if max(hkeys) < 1 << 16
                else run_hkeys
            )
            run_order = np.argsort(sort_keys, kind="stable")
            starts_sorted = run_starts[run_order]
            lengths_sorted = run_lengths[run_order]
            before = np.cumsum(lengths_sorted) - lengths_sorted
            order = np.repeat(starts_sorted - before, lengths_sorted) + np.arange(n)
            hkey_sorted = np.repeat(run_hkeys[run_order], lengths_sorted)
            new_register = np.empty(n, dtype=bool)
            new_register[0] = True
            np.not_equal(hkey_sorted[1:], hkey_sorted[:-1], out=new_register[1:])
            histories_sorted = history_pack(
                np, dirs[order], bits, group_starts(np, new_register)
            )
            scattered = np.empty(n, dtype=histories_sorted.dtype)
            scattered[order] = histories_sorted
            return scattered

        def histories():
            scope = self.config.history_scope
            if scope == "global":
                return columns.history("global", bits)
            if scope == "peraddr":
                local = columns.history("local", bits)
                scattered = np.empty(n, dtype=local.dtype)
                scattered[columns.grouped()[0]] = local
                return scattered
            return columns.cached(
                ("tl-hist", self.config.history_sets, bits), build_histories
            )

        # 2. Joint counter key, one independent saturating counter per
        #    distinct (pattern entity, history) value, built and sorted
        #    in the narrowest dtype that fits.  Like the history column,
        #    the grouping permutation and its run partition are pure
        #    functions of the trace and the config's scopes/bits, so
        #    they live in the snapshot cache too; only the counter
        #    scoring and attribution run per call.
        def build_counter_grouping():
            top_key = int(max(pkeys)) << bits | self._mask
            wide = np.int32 if top_key < 1 << 31 else np.int64
            counter_keys = (
                np.take(np.asarray(pkeys, dtype=wide), site_ids) << bits
            ) | histories().astype(wide, copy=False)
            if top_key < 1 << 16:
                counter_keys = counter_keys.astype(np.uint16)
            order = np.argsort(counter_keys, kind="stable")
            keys_sorted = counter_keys[order]
            new_counter = np.empty(n, dtype=bool)
            new_counter[0] = True
            np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=new_counter[1:])
            dirs_sorted = dirs[order]
            run_break = new_counter.copy()
            run_break[1:] |= dirs_sorted[1:] != dirs_sorted[:-1]
            return (
                order.astype(index_dtype(np, n)),
                new_counter,
                dirs_sorted,
                run_bounds(np, run_break),
            )

        order, new_counter, dirs_sorted, runs = columns.cached(
            (
                "tl-ckey",
                self.config.history_scope,
                self.config.history_sets,
                self.config.pattern_scope,
                self.config.pattern_sets,
                bits,
            ),
            build_counter_grouping,
        )
        starts, _, wrongs = saturating_run_wrongs(
            np, new_counter, dirs_sorted, threshold, top, threshold, runs=runs
        )
        wrong_events = order[wrong_positions(np, starts, wrongs)]
        return np.bincount(np.take(site_ids, wrong_events), minlength=n_sites).tolist()


def two_level_4k(history_bits: int = 9) -> TwoLevelPredictor:
    """The paper's dynamic reference point ("two level 4K bit")."""
    return TwoLevelPredictor(
        TwoLevelConfig(
            history_scope="set",
            pattern_scope="global",
            history_bits=history_bits,
            history_sets=1024,
        ),
        name="two-level-4k",
    )


def all_yeh_patt_variants(history_bits: int = 6) -> Dict[str, TwoLevelPredictor]:
    """All nine history × pattern scope combinations [YN93]."""
    variants = {}
    for history_scope in _SCOPES:
        for pattern_scope in _SCOPES:
            config = TwoLevelConfig(
                history_scope=history_scope,
                pattern_scope=pattern_scope,
                history_bits=history_bits,
            )
            variants[config.yeh_patt_name] = TwoLevelPredictor(config)
    return variants
