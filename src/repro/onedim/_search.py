"""Last-mile search helpers shared by the learned 1-d indexes.

Every learned index predicts an approximate position and then runs a
bounded *correction* search around the prediction.  These helpers
implement the two standard strategies — bounded binary search when an
error bound is known, exponential (galloping) search when it is not —
and record the search effort in the index's :class:`IndexStats`.

The batch kernels share one vectorised form of the bounded search,
:func:`windowed_lower_bound`: it probes only inside each query's window,
and is the one place that decides when a plain global ``searchsorted``
is the cheaper way to the same answer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import IndexStats

__all__ = [
    "bounded_binary_search",
    "bounded_search_batch",
    "exponential_search",
    "lower_bound",
    "scan_range",
    "windowed_lower_bound",
]


def lower_bound(keys: np.ndarray, key: float, lo: int, hi: int, stats: IndexStats | None = None) -> int:
    """First index in [lo, hi) with ``keys[idx] >= key`` (plain binary).

    A NaN ``key`` orders after every key (it answers ``hi``), as in
    ``searchsorted`` and :func:`windowed_lower_bound`.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if stats is not None:
            stats.comparisons += 1
        if not keys[mid] >= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def bounded_binary_search(keys: np.ndarray, key: float, predicted: int, error: int,
                          stats: IndexStats | None = None) -> int:
    """Lower-bound position of ``key`` within ``predicted +- error``.

    The window is clamped to the array; the caller guarantees that the
    true position lies inside it (learned indexes with an epsilon bound).
    Returns the insertion point (first index with ``keys[idx] >= key``).
    """
    n = keys.shape[0]
    lo = max(predicted - error, 0)
    hi = min(predicted + error + 1, n)
    if stats is not None:
        stats.corrections += hi - lo
    return lower_bound(keys, key, lo, hi, stats)


def exponential_search(keys: np.ndarray, key: float, predicted: int,
                       stats: IndexStats | None = None) -> int:
    """Lower-bound position of ``key`` by galloping out from ``predicted``.

    Used when no error bound is available (e.g. ALEX's model-based
    search): double the window until it brackets the key, then binary
    search inside it.  Cost is O(log of the actual error).

    ``stats.corrections`` records the actual searched window: one per
    galloped probe plus the width of the final binary-search window.
    (Counting only the binary window would report zero effort whenever
    the gallop is clamped at position 0 and the window collapses there,
    despite having probed the whole prefix.)
    """
    n = keys.shape[0]
    if n == 0:
        return 0
    pos = min(max(predicted, 0), n - 1)
    if stats is not None:
        stats.comparisons += 1
    probes = 0
    if keys[pos] < key:
        # Answer lies in (pos, n]: gallop right.
        step = 1
        lo = pos + 1
        while pos + step < n:
            probes += 1
            if stats is not None:
                stats.comparisons += 1
            if keys[pos + step] >= key:
                break
            lo = pos + step + 1
            step *= 2
        hi = min(pos + step + 1, n)
        if stats is not None:
            stats.corrections += probes + hi - lo
        return lower_bound(keys, key, lo, hi, stats)
    # keys[pos] >= key: answer lies in [0, pos], gallop left.
    step = 1
    hi = pos
    lo = 0
    while pos - step >= 0:
        probes += 1
        if stats is not None:
            stats.comparisons += 1
        if keys[pos - step] < key:
            # The probe is known smaller than key: exclude it from the
            # binary window rather than re-examining it.
            lo = pos - step + 1
            break
        hi = pos - step
        step *= 2
    if stats is not None:
        stats.corrections += probes + hi - lo
    return lower_bound(keys, key, lo, hi, stats)


#: Cost model behind :func:`_use_window`, fitted to the crossover table in
#: DESIGN.md ("The last mile").  One probe of one row costs the same in
#: either arm while the array is cache-resident; the global search pays
#: extra for every level beyond that; the windowed loop pays numpy
#: dispatch per call and per iteration.
_ROW_PROBE_US = 0.0065
_ROW_MISS_US = 0.07
_CACHED_LEVELS = 17  # 2**17 float64 keys = 1 MiB
_CALL_US = 10.0
_ITER_US = 2.0


def _use_window(m: int, n: int, width: int) -> bool:
    """Whether the windowed arm beats one global ``searchsorted``.

    A pure function of the input's shape — batch rows ``m``, array
    length ``n``, widest window ``width`` — so the choice needs no knob.
    Both arms return the same array (pinned by property test); this only
    picks the cheaper one: the window saves each row ``levels - iters``
    probes plus the global search's cache misses, for a fixed cost.
    """
    levels = n.bit_length()
    iters = width.bit_length()
    saved_us = (_ROW_PROBE_US * (levels - iters)
                + _ROW_MISS_US * max(levels - _CACHED_LEVELS, 0))
    return m * saved_us > _CALL_US + _ITER_US * iters


def windowed_lower_bound(keys: np.ndarray, queries: np.ndarray,
                         lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-row lower bound of ``queries[i]`` inside ``keys[lo[i]:hi[i]]``.

    Equal, for every input, to ``np.clip(np.searchsorted(keys, queries),
    lo, hi)`` (the *clip lemma*: ``keys`` is globally sorted, so a global
    answer left of the window means every windowed key is ``>= q`` and
    the window's start is returned, and one right of it means none is and
    the window's end is returned) — but computed by probing only inside
    the windows: ``bit_length(max width)`` rounds of a branchless,
    whole-batch binary search, so the cost does not grow with
    ``keys.size``.  Small batches over small arrays, where one C
    ``searchsorted`` is cheaper than the loop's fixed numpy dispatch
    cost, take the global arm instead (:func:`_use_window`).

    Non-empty windows must lie inside the array (``0 <= lo < hi <= n``,
    what clamping a predicted position gives); an inverted window answers
    its ``hi``, as ``np.clip`` does.  NaN queries order after every key,
    as in ``searchsorted``.

    Returns:
        int64 array of per-query insertion points in ``[lo, hi]``.
    """
    lo = np.minimum(lo, hi)  # an inverted window clips to its ``hi``
    width = int((hi - lo).max()) if lo.size else 0
    if not _use_window(lo.size, keys.shape[0], width):
        return np.clip(np.searchsorted(keys, queries, side="left"), lo, hi)
    return _window_search(keys, queries, lo, hi, width)


def _window_search(keys: np.ndarray, queries: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray, width: int) -> np.ndarray:
    """The windowed arm: binary lifting from ``lo - 1`` towards ``hi - 1``.

    ``last`` is the largest probed index whose key is known ``< q``
    (``lo - 1`` when none is); each round tries to advance it by a
    halving power of two, staying below ``hi``.  Rows with narrower
    windows simply refuse the steps that would leave theirs.
    """
    last = lo - 1
    step = 1 << (width.bit_length() - 1) if width else 0
    while step:
        cand = last + step
        # ``mode="clip"`` keeps the gather in bounds for the candidates
        # that ``cand >= hi`` rejects anyway.
        stop = keys.take(cand, mode="clip") >= queries
        stop |= cand >= hi
        last = np.where(stop, last, cand)
        step >>= 1
    last += 1
    return last


def bounded_search_batch(keys: np.ndarray, queries: np.ndarray,
                         predicted: np.ndarray, errors: np.ndarray | int,
                         stats: IndexStats | None = None) -> np.ndarray:
    """Vectorized :func:`bounded_binary_search` over a whole query batch.

    Each query is searched only inside its clamped window
    ``[predicted - error, predicted + error]`` by
    :func:`windowed_lower_bound`, which reproduces a loop of scalar calls
    exactly.

    Counters are aggregated per batch: ``corrections`` sums the window
    widths, ``comparisons`` the binary-search depths ``ceil(log2(w))``.

    Returns:
        int64 array of per-query insertion points.
    """
    n = keys.shape[0]
    predicted = np.asarray(predicted, dtype=np.int64)
    lo = np.maximum(predicted - errors, 0)
    hi = np.minimum(predicted + errors + 1, n)
    pos = windowed_lower_bound(keys, queries, lo, hi)
    if stats is not None:
        widths = hi - lo
        stats.corrections += int(widths.sum())
        stats.comparisons += int(
            np.ceil(np.log2(np.maximum(widths, 1).astype(np.float64))).sum()
        )
    return pos


def scan_range(keys: np.ndarray, values: Sequence[object], start: int, high: float,
               stats: IndexStats) -> list[tuple[float, object]]:
    """The ``(key, value)`` pairs from position ``start`` while ``key <= high``.

    A range scan over a sorted array is two positions and a slice: the
    caller's learned ``_locate(low)`` gives ``start``, one upper-bound
    search gives the end.  ``stats.keys_scanned`` counts the slice.
    """
    end = int(keys.searchsorted(high, side="right"))
    if end <= start or high != high:  # NaN compares false: nothing is <= it
        return []
    stats.keys_scanned += end - start
    return list(zip(keys[start:end].tolist(), values[start:end]))
