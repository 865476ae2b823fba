"""Shared building blocks for the numpy batch kernels.

Every predictor family's :meth:`~repro.predictors.base.Predictor.step_batch`
kernel decomposes into the same few primitives over the trace's
columnar view (:class:`~repro.profiling.columns.TraceColumns`):

* **history packing** (:func:`history_pack`) — the k-bit shift-register
  contents before every event of a stream, as an integer column.  A
  branch-history register never depends on predictor state, only on the
  actual outcomes, so the whole history column is computable up front —
  the observation that makes even the *adaptive* two-level predictor
  batchable.
* **saturating-counter scoring** (:func:`saturating_run_wrongs`) —
  mispredictions of independent n-bit saturating counters.  Within one
  counter's event stream, a *run* of equal outcomes mispredicts a
  closed-form prefix of its events (an up-run starting below threshold
  mispredicts exactly ``threshold - value`` times, capped by the run
  length) and leaves the counter in a closed-form state, so the
  per-event recurrence collapses to a per-run one: the work drops from
  O(events) to O(direction runs).

Every function takes the numpy module as its first argument; the
kernels run only when numpy is active, and without it the engine
scores each predictor with the sequential reference instead.  Results
are identical to stepping the predictor event by event.
"""

from __future__ import annotations

from typing import List


def history_pack(np, dirs, bits: int, group_start=None):
    """The shift-register contents before each event, as an int64 column.

    ``out[t] = sum_{j=1..bits} dirs[t-j] << (j-1)`` — the register after
    shifting in events ``< t``, newest outcome in the LSB, starting from
    an all-zero register exactly like a freshly reset predictor.  With
    *group_start* (per-event index of the first event of its group),
    registers reset at group boundaries: contributions from events
    before ``group_start[t]`` are dropped, which scores one independent
    register per group (per-site, per-set, ...) in one pass.
    """
    dtype = np.int32 if bits < 31 else np.int64
    n = len(dirs)
    out = np.zeros(n, dtype=dtype)
    if n == 0 or bits == 0:
        return out
    wide = dirs.astype(dtype)
    for j in range(1, min(bits, n) + 1):
        out[j:] += wide[: n - j] << (j - 1)
    if group_start is not None:
        # Bit j-1 of out[t] is the outcome of event t-j; outcomes from
        # before the group are exactly the bits at positions >= the
        # distance to the group start, so one mask drops them all.
        window = np.arange(n, dtype=np.int64)
        window -= group_start
        window = np.minimum(window, bits).astype(dtype)
        out &= (dtype(1) << window) - dtype(1)
    return out


def group_starts(np, new_group, indices=None):
    """Per event, the index where its group begins.

    *new_group* is a boolean column marking the first event of every
    group (groups are contiguous).  The result feeds
    :func:`history_pack`'s boundary masking.  *indices* is an optional
    precomputed ``arange(len(new_group))`` (callers on a hot path cache
    it per trace).
    """
    n = len(new_group)
    starts = np.zeros(n, dtype=np.int64)
    if n:
        if indices is None:
            indices = np.arange(n, dtype=np.int64)
        starts[new_group] = indices[new_group]
        np.maximum.accumulate(starts, out=starts)
    return starts


def saturating_run_wrongs(
    np, new_group, dirs, threshold: int, top: int, initial: int, runs=None
):
    """Per-run misprediction counts for grouped saturating counters.

    *dirs* holds the outcomes of many independent counters, grouped
    contiguously (*new_group* marks each counter's first event); every
    counter starts at *initial*.  Runs are cut where the outcome or the
    group changes; returns ``(run_starts, run_lengths, wrongs)`` where
    ``wrongs[i]`` is how many of run *i*'s events mispredict — always a
    *prefix* of the run (the counter moves monotonically through a
    run), so callers attribute them with :func:`wrong_positions`.
    *runs* optionally supplies precomputed ``(run_starts, run_lengths)``
    for exactly that partition (callers sharing a cached run column).

    The per-run entry-value recurrence — a clamped random walk — is
    solved without any Python-level loop: a saturated add
    ``v -> clip(v + d, 0, top)`` is exactly ``min(B, max(A, v + D))``,
    a family closed under composition, so per-run prefix compositions
    come out of a segmented Hillis-Steele doubling scan (O(log runs)
    vectorized passes).
    """
    n = len(dirs)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    if runs is not None:
        run_starts, run_lengths = runs
    else:
        run_break = np.array(new_group, dtype=bool, copy=True)
        run_break[1:] |= dirs[1:] != dirs[:-1]
        run_starts = np.flatnonzero(run_break)
        run_lengths = np.diff(run_starts, append=n)
    # 0/1 direction bytes select like booleans everywhere below; the
    # cast to bool would only add a copy.
    run_up = dirs[run_starts]
    run_fresh = np.asarray(new_group, dtype=bool)[run_starts]
    n_runs = len(run_starts)

    # Each run is the saturated add v -> clip(v + delta, 0, top), i.e.
    # min(B, max(A, v + D)) with A = clip(delta), B = clip(top + delta).
    # All scan state fits int32 (|delta| <= n < 2**31), which halves the
    # memory the doubling passes touch.  Explicit minimum/maximum pairs
    # instead of np.clip: clip with Python-int bounds goes through a
    # slow bounds-normalisation path on every call.
    lengths32 = run_lengths.astype(np.int32)
    deltas = np.where(run_up, lengths32, -lengths32)
    lower = np.minimum(np.maximum(deltas, 0), top)
    upper = np.minimum(np.maximum(deltas + top, 0), top)
    # Group boundaries need no segment flags: bake each group's known
    # entry value into its first run, turning that composition into the
    # *constant* "value after this run".  A constant absorbs anything
    # folded in from its left, so group starts block cross-group folds
    # by construction — and runs of length >= top are constants too
    # (lower == upper), which keeps convergence to a handful of passes.
    group_entry = np.minimum(np.maximum(deltas + initial, 0), top)
    np.copyto(lower, group_entry, where=run_fresh)
    np.copyto(upper, group_entry, where=run_fresh)
    shifts = deltas  # consumed by the bake above; safe to reuse in place

    step = 1
    while step < n_runs:
        a1, b1, d1 = lower[:-step], upper[:-step], shifts[:-step]
        a2, b2, d2 = lower[step:], upper[step:], shifts[step:]
        # Positions < step already span the whole prefix; once every
        # later composition is constant, nothing can change any more.
        if (a2 == b2).all():
            break
        new_a = np.maximum(a2, a1 + d2)
        new_b = np.minimum(b2, np.maximum(a2, b1 + d2))
        np.minimum(new_b, new_a, out=new_a)
        d2 += d1
        lower[step:] = new_a
        upper[step:] = new_b
        step *= 2

    # Entry value of run i: the converged composition at i-1 applied to
    # any argument (the group-start constant has been absorbed), except
    # that a fresh run enters at the group's initial value.
    entry = np.empty(n_runs, dtype=np.int32)
    entry[0] = initial
    if n_runs > 1:
        np.minimum(
            upper[:-1],
            np.maximum(lower[:-1], shifts[:-1]),
            out=entry[1:],
        )
    entry[run_fresh] = initial

    # An up-run entering at v mispredicts its first threshold - v
    # events; a down-run its first v - threshold + 1 (both capped).
    raw = np.where(run_up, threshold - entry, entry - threshold + 1)
    wrongs = np.minimum(np.maximum(raw, 0), lengths32)
    return run_starts, run_lengths, wrongs


def wrong_positions(np, run_starts, wrongs):
    """Event positions of the mispredicted prefix of every run.

    Expands ``(run_starts, wrongs)`` from :func:`saturating_run_wrongs`
    into the indices of the mispredicted events — O(total wrongs) work,
    never O(events).
    """
    total = int(wrongs.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    before = np.cumsum(wrongs) - wrongs
    return (
        np.repeat(run_starts - before, wrongs)
        + np.arange(total, dtype=np.int64)
    )


def bincount_bool(np, site_ids, flags, n_sites: int) -> List[int]:
    """Per-site totals of a boolean per-event column, as Python ints."""
    # Filtering then counting stays integer end to end (bincount with
    # weights would round-trip through float64).
    return np.bincount(site_ids[flags], minlength=n_sites).tolist()
