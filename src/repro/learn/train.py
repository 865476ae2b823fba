"""Deterministic offline training over :class:`TraceColumns`.

The protocol mirrors the paper's profile-then-deploy split: the first
``split`` fraction of a trace (in event order) is the "profiling run"
the model learns from; the remaining suffix is the deployment the
frozen model is judged on.  History registers start at zero for both
phases — the holdout is evaluated as its own fresh trace, so a
learned predictor and a pattern-table predictor see identical inputs.

Determinism: a history register depends only on the trace, never on
the weights, so every event's pattern is computed up front as a
column.  No model reads another model's state, so each model then
trains alone over its own events in event order — the shared model
over the whole prefix, each site's model over that site's events —
and ends with exactly the weights of one interleaved pass.  Training
runs in pure-Python integer/float arithmetic in :func:`margin`'s
fixed order, keyed by dense site ids (never ``hash()``), so the
weights are byte-identical across ``PYTHONHASHSEED`` values and across
the numpy / ``REPRO_NO_NUMPY=1`` column representations.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Sequence, Tuple

from .models import LearnedConfig, LearnedModel, ModelWeights

#: Default train/eval split: first half trains, second half judges.
DEFAULT_SPLIT = 0.5


def training_cut(n_events: int, split: float) -> int:
    """How many leading events the training prefix spans.

    ``split`` must be in ``(0, 1]``; ``1.0`` trains on the whole trace
    (what the transfer experiment does — its holdout is a *different*
    workload).
    """
    if isinstance(split, bool) or not isinstance(split, (int, float)):
        raise ValueError("split must be a number in (0, 1]")
    split = float(split)
    if not math.isfinite(split) or not 0.0 < split <= 1.0:
        raise ValueError(f"split must be in (0, 1], got {split!r}")
    return int(n_events * split)


# -- pattern columns -------------------------------------------------------------

#: One site's training stream: ``(sid, patterns, directions)``.
SiteStream = Tuple[int, Sequence[int], Sequence[int]]


def _pattern_columns(
    columns, cut: int, config: LearnedConfig
) -> Tuple[Sequence[int], Sequence[int], List[SiteStream]]:
    """``(global registers, directions, site streams)`` of the prefix.

    The first two are in event order and train the shared model; each
    site stream holds one site's scope patterns and outcomes in event
    order, sites in first-seen order.  Every value is a plain Python
    int — the training arithmetic must not see numpy scalars.
    """
    np = columns.np
    if np is None:
        return _pattern_columns_sequential(columns, cut, config)
    bits = config.history_bits
    ghist = columns.history("global", bits)
    # The register before event t depends only on events < t, so the
    # whole-trace columns' prefixes are exactly the prefix's registers;
    # the grouping is stable, so a site's prefix events are the first
    # entries of its group, and ``events`` — the prefix's event indices
    # grouped by site id, each site's in trace order — is the grouping
    # filtered to the prefix.
    site_ids = columns.site_ids[:cut]
    order = columns.grouped()[0]
    keep = order < cut
    events = order[keep]
    if config.scope == "global":
        patterns = np.take(ghist, events)
    else:
        # A local register restarts with its site, so it comes from the
        # grouped local column.
        patterns = columns.history("local", bits)[keep]
        if config.scope == "hybrid":
            # Register columns have no spare high bits: widen first.
            patterns = (patterns.astype(np.int32) << bits) | np.take(ghist, events)
    patterns = patterns.tolist()
    directions = np.take(columns.directions, events).tolist()
    counts = np.bincount(site_ids, minlength=columns.n_sites).tolist()
    offsets = list(itertools.accumulate([0] + counts))
    seen, first = np.unique(site_ids, return_index=True)
    streams = []
    for sid in seen[np.argsort(first)].tolist():
        start, stop = offsets[sid], offsets[sid + 1]
        streams.append((sid, patterns[start:stop], directions[start:stop]))
    return ghist[:cut].tolist(), columns.directions[:cut].tolist(), streams


def _pattern_columns_sequential(
    columns, cut: int, config: LearnedConfig
) -> Tuple[Sequence[int], Sequence[int], List[SiteStream]]:
    """:func:`_pattern_columns` in one pure-Python pass."""
    bits = config.history_bits
    mask = (1 << bits) - 1
    scope = config.scope
    directions = columns.directions[:cut]
    ghists: List[int] = []
    lhists = [0] * columns.n_sites
    site_patterns: List[List[int]] = [None] * columns.n_sites  # type: ignore[list-item]
    site_dirs: List[List[int]] = [None] * columns.n_sites  # type: ignore[list-item]
    order: List[int] = []
    ghist = 0
    for sid, direction in zip(columns.site_ids[:cut], directions):
        ghists.append(ghist)
        patterns = site_patterns[sid]
        if patterns is None:
            patterns = site_patterns[sid] = []
            site_dirs[sid] = []
            order.append(sid)
        if scope == "global":
            patterns.append(ghist)
        elif scope == "peraddr":
            patterns.append(lhists[sid])
        else:
            patterns.append((lhists[sid] << bits) | ghist)
        site_dirs[sid].append(direction)
        ghist = ((ghist << 1) | direction) & mask
        lhists[sid] = ((lhists[sid] << 1) | direction) & mask
    streams = [(sid, site_patterns[sid], site_dirs[sid]) for sid in order]
    return ghists, directions, streams


# -- generated trainers ----------------------------------------------------------

_trainers: Dict[Tuple[str, int], Callable] = {}

# Every perceptron weight stays in [-limit, limit], so its clamped ±1
# step is one compare-and-step.
_PERCEPTRON = """\
def train(patterns, directions, epochs, theta, limit):
    low = -limit
    low_theta = -theta
    b = 0
{init}
    for _ in range(epochs):
        for p, d in zip(patterns, directions):
            t = {margin}
            if d:
                if t > theta:
                    continue
                if b < limit:
                    b += 1
{taken}
            else:
                if t < low_theta:
                    continue
                if b > low:
                    b -= 1
{not_taken}
    return b, [{weights}]
"""
_PERCEPTRON_TAKEN = """\
                if p & {mask}:
                    if {w} < limit:
                        {w} += 1
                elif {w} > low:
                    {w} -= 1
"""
_PERCEPTRON_NOT_TAKEN = """\
                if p & {mask}:
                    if {w} > low:
                        {w} -= 1
                elif {w} < limit:
                    {w} += 1
"""
_LOGISTIC = """\
def train(patterns, directions, epochs, rate):
    b = 0.0
{init}
    for _ in range(epochs):
        for p, d in zip(patterns, directions):
            t = {margin}
            if t > 60.0:
                t = 60.0
            elif t < -60.0:
                t = -60.0
            g = rate * (d - 1.0 / (1.0 + exp(-t)))
            b += g
{step}
    return b, [{weights}]
"""
_LOGISTIC_STEP = """\
            if p & {mask}:
                {w} += g
            else:
                {w} -= g
"""


def _trainer_source(kind: str, width: int) -> str:
    """One model's whole training loop with its weights in locals
    ``w0..w{width-1}`` and the bit tests as literal masks."""
    terms = [{"w": f"w{j}", "mask": 1 << j} for j in range(width)]

    def each(template: str) -> str:
        return "".join(template.format(**term) for term in terms).rstrip("\n")

    zero = "0" if kind == "perceptron" else "0.0"
    fields = {
        "init": "\n".join(f"    {term['w']} = {zero}" for term in terms),
        # margin()'s order: the bias, then +w_j or -w_j for ascending j.
        "margin": "b" + each(" + ({w} if p & {mask} else -{w})"),
        "weights": ", ".join(term["w"] for term in terms),
    }
    if kind == "perceptron":
        return _PERCEPTRON.format(
            taken=each(_PERCEPTRON_TAKEN),
            not_taken=each(_PERCEPTRON_NOT_TAKEN),
            **fields,
        )
    return _LOGISTIC.format(step=each(_LOGISTIC_STEP), **fields)


def _trainer(kind: str, width: int) -> Callable:
    """The generated trainer for a *width*-bit model of *kind*: at most
    one per (kind, width) per process."""
    function = _trainers.get((kind, width))
    if function is None:
        namespace = {"exp": math.exp}
        source = _trainer_source(kind, int(width))
        exec(compile(source, f"<repro.learn {kind} {width}>", "exec"), namespace)
        function = _trainers.setdefault((kind, width), namespace["train"])
    return function


def fit(columns, config: LearnedConfig, split: float = DEFAULT_SPLIT) -> LearnedModel:
    """Train a :class:`LearnedModel` on the leading ``split`` fraction
    of the columns.

    ``epochs`` passes per model, registers reset at each epoch start.
    The shared global-history model trains on every event; each site's
    model trains on that site's events over the scope's pattern.
    Returns per-site weights for every site seen in the prefix
    (first-seen order) — unseen sites will route to the shared model at
    prediction time.
    """
    cut = training_cut(columns.n_events, split)
    ghists, directions, streams = _pattern_columns(columns, cut, config)
    kind = config.kind
    train_shared = _trainer(kind, config.history_bits)
    train_site = _trainer(kind, config.feature_bits)
    if kind == "perceptron":
        limit = config.weight_limit
        shared_args = (config.resolved_theta(config.history_bits), limit)
        site_args = (config.resolved_theta(config.feature_bits), limit)
    else:
        shared_args = site_args = (config.learning_rate,)
    epochs = config.epochs
    shared = ModelWeights(*train_shared(ghists, directions, epochs, *shared_args))
    sites = {
        columns.sites[sid]: ModelWeights(
            *train_site(patterns, site_directions, epochs, *site_args)
        )
        for sid, patterns, site_directions in streams
    }
    return LearnedModel(config=config, shared=shared, sites=sites)
