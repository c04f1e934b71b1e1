"""Error-bounded piecewise-linear approximation (PLA).

This is the substrate of the PGM-index and FITing-Tree families: partition
a sorted sequence of ``(key, position)`` pairs into the fewest segments
such that, within each segment, a linear model predicts every position to
within a user-chosen error ``epsilon``.

Two algorithms are provided:

* :func:`segment_stream` — single-pass *shrinking-cone* segmentation.  The
  segment is anchored at its first point; each new point narrows the
  feasible slope interval, and the segment closes when the interval
  becomes empty.  Every produced segment satisfies the epsilon guarantee
  by construction.  (This is the FITing-Tree algorithm and the standard
  practical PGM construction; the fully optimal O'Rourke variant saves at
  most a small constant factor of segments.)
* :func:`segment_greedy_splits` — fixed-size fallback used in tests as a
  trivially correct baseline.

Each :class:`Segment` stores the anchor key, slope, anchor position, and
the covered slice ``[first, last)`` of the sorted array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import sanitize as _sanitize

__all__ = ["Segment", "segment_stream", "segment_greedy_splits", "verify_epsilon"]


@dataclass(frozen=True)
class Segment:
    """One epsilon-bounded linear segment over a slice of sorted keys.

    The model is stored in *anchor form* — ``pos ~= slope * (k - key) +
    anchor_pos`` — which stays numerically stable even when ``slope`` is
    huge (tiny key gaps) and ``key`` is large, where the textbook
    ``slope * k + intercept`` form would overflow.

    Attributes:
        key: smallest key covered (the anchor of the model).
        slope: model slope in positions per key unit.
        anchor_pos: position predicted exactly at the anchor key.
        first: index of the first covered position (inclusive).
        last: index one past the last covered position (exclusive).
    """

    key: float
    slope: float
    anchor_pos: float
    first: int
    last: int

    def predict(self, key: float) -> float:
        """Predicted (float) position of ``key`` within the global array."""
        return self.slope * (key - self.key) + self.anchor_pos

    @property
    def intercept(self) -> float:
        """Equivalent global intercept (may overflow for extreme slopes)."""
        return self.anchor_pos - self.slope * self.key

    def __len__(self) -> int:
        return self.last - self.first

    @property
    def size_bytes(self) -> int:
        """Storage: key, slope, anchor position, and two 8-byte offsets."""
        return 40


def segment_stream(keys: np.ndarray, epsilon: float, positions: np.ndarray | None = None) -> list[Segment]:
    """Partition sorted ``keys`` into epsilon-bounded linear segments.

    Args:
        keys: sorted 1-d array of keys (duplicates allowed).
        epsilon: maximum absolute error of each segment's predictions, in
            positions.  Must be >= 0; ``epsilon = 0`` degenerates to one
            segment per distinct slope change and is permitted.
        positions: optional target positions; defaults to ``0..n-1``.

    Returns:
        A list of :class:`Segment` covering ``[0, n)`` without gaps.
        The epsilon bound is exact in real arithmetic; float rounding can
        exceed it by a few ulps, which is why every index built on these
        segments searches a window of ``epsilon + 1`` positions.

    The algorithm anchors each segment at its first point ``(k0, p0)`` and
    maintains the interval of slopes ``[lo, hi]`` for which the line
    through the anchor stays within ``epsilon`` of every point seen so
    far.  When a point empties the interval, the segment is emitted and a
    new one starts at that point.  Duplicate keys equal to the anchor are
    handled by checking their position error directly (slope is
    irrelevant for a zero key delta).

    :func:`_cones` evaluates the cone a block at a time.  A block spans
    twice the mean segment length so far and doubles while the cone
    stays open; while segments are short, one block holds the cones of
    many speculative anchors (:data:`_TABLE_CELLS`) and the chain of cuts
    walks through it.  The segments equal, float for float, those of the
    one-point-at-a-time loop.
    """
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    n = keys.size
    if n == 0:
        return []
    default_positions = positions is None
    if positions is None:
        positions = np.arange(n, dtype=np.float64)
    else:
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.shape != keys.shape:
            raise ValueError("positions must align with keys")

    segments: list[Segment] = []
    limit = max(n >> 3, 1)  # block rows: temporaries stay small next to the keys
    start = 0
    with np.errstate(all="ignore"):
        while start < n:
            lags = min(2 * -(-start // len(segments)) if segments else 2, limit, n - start)
            anchors = min(_TABLE_CELLS // lags if 4 * lags * lags <= _TABLE_CELLS else 1, n - start)
            cuts, run_lo, run_hi, fits = _cones(keys, positions, epsilon, start, anchors, 1, lags,
                                                -math.inf, math.inf)
            f = start
            while f < start + anchors:
                i = f - start
                lag, j, block, seed = 1, cuts[i], lags, (-math.inf, math.inf)
                lo, hi, ok = run_lo[i], run_hi[i], fits[i]
                while ok[j]:
                    # Open after the block: extend this cone alone, doubling.
                    seed = (float(lo[-1]), float(hi[-1]))
                    lag += block
                    block = min(2 * block, limit, n + 1 - f - lag)
                    (j,), lo, hi, ok = _cones(keys, positions, epsilon, f, 1, lag, block, *seed)
                    lo, hi, ok = lo[0], hi[0], ok[0]
                slope = _pick_slope(float(lo[j - 1]), float(hi[j - 1])) if j else _pick_slope(*seed)
                segments.append(Segment(key=float(keys[f]), slope=slope,
                                        anchor_pos=float(positions[f]), first=f, last=f + lag + j))
                f += lag + j
            start = f
    if default_positions and _sanitize.enabled():
        # Dynamic cross-check of the construction guarantee: every index
        # built on these segments searches a window of epsilon + 1
        # positions, so that is the bound the sanitizer holds us to.
        worst = verify_epsilon(keys, segments, epsilon)
        _sanitize.check(
            worst <= epsilon + 1.0,
            f"segment_stream: epsilon bound violated (worst error {worst} "
            f"> epsilon + 1 = {epsilon + 1.0})",
        )
    return segments


#: Cells (anchors x points) of one speculative block.  A numpy call costs
#: as much as touching ~10^3 elements, so a block of a few dozen points
#: is mostly overhead.  While ``4 * lags**2 <= _TABLE_CELLS`` (a block
#: resolves ~8 or more segments) it evaluates ``_TABLE_CELLS // lags``
#: consecutive anchors at once instead of one.
_TABLE_CELLS = 2048


def _cones(
    keys: np.ndarray, positions: np.ndarray, epsilon: float, first: int, anchors: int,
    lag: int, width: int, lo: float, hi: float,
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Shrinking cones of ``anchors`` consecutive anchors over one block.

    Row ``i`` is the cone anchored at ``first + i`` and column ``j`` the
    point ``lag + j`` rows past it.  Returns each row's first column that
    does not fit (a fitting column if none fails), the running slope
    bounds after each column (``lo`` / ``hi`` seed them) and the ``fits``
    mask.  Points past the end read as NaN, which never fits, so a cone
    that reaches the end closes at ``n``.

    The bounds are ``(p - epsilon - p0) / dk`` and ``(p + epsilon - p0) /
    dk``, the loop's formula and operation order.  A point with ``dk <=
    0`` (a duplicate of the anchor) fits iff ``|p0 - p| <= epsilon`` and
    leaves the bounds alone; a non-finite bound never fits.  Both are
    masked only when the block holds one.
    """
    begin = first + lag
    end = begin + anchors + width - 1
    ks, ps = keys[begin:end], positions[begin:end]
    if end > keys.size:
        pad = np.full(end - keys.size, np.nan)
        ks, ps = np.concatenate((ks, pad)), np.concatenate((ps, pad))
    k0: float | np.ndarray
    p0: float | np.ndarray
    if anchors == 1:  # scalars broadcast far cheaper than (1, 1) columns
        k0, p0 = float(keys[first]), float(positions[first])
    else:
        k0, p0 = keys[first:first + anchors, None], positions[first:first + anchors, None]

    def window(col: np.ndarray) -> np.ndarray:
        # Row i is col[i:i + width], as a strided view.
        return np.ndarray((anchors, width), np.float64, col, 0, (8, 8))

    dk = window(ks) - k0
    c_lo = window(ps - epsilon) - p0
    c_lo /= dk
    c_hi = window(ps + epsilon) - p0
    c_hi /= dk
    ok: np.ndarray | None = None
    if not (np.minimum.reduce(dk, axis=None) > 0.0
            and math.isfinite(np.add.reduce(c_hi - c_lo, axis=None))):
        dup = dk <= 0.0
        dup_fits = dup & (np.abs(p0 - window(ps)) <= epsilon)
        ok = (np.isfinite(c_lo) & np.isfinite(c_hi) & ~dup) | dup_fits
        c_lo[dup_fits] = -np.inf
        c_hi[dup_fits] = np.inf
    # Seed with the carried bounds the way the loop's max/min keep them.
    if not c_lo[0, 0] > lo:
        c_lo[0, 0] = lo
    if not c_hi[0, 0] < hi:
        c_hi[0, 0] = hi
    np.maximum.accumulate(c_lo, axis=1, out=c_lo)
    np.minimum.accumulate(c_hi, axis=1, out=c_hi)
    fits = c_lo <= c_hi
    if ok is not None:
        fits &= ok
    return fits.argmin(axis=1).tolist(), c_lo, c_hi, fits


def _pick_slope(lo: float, hi: float) -> float:
    """Pick a representative slope from the feasible interval."""
    if not math.isfinite(lo) and not math.isfinite(hi):
        return 0.0
    if not math.isfinite(lo):
        return hi
    if not math.isfinite(hi):
        return lo
    return (lo + hi) / 2.0


def segment_greedy_splits(keys: np.ndarray, segment_size: int) -> list[Segment]:
    """Baseline: fixed-size segments with endpoint-fit lines (no guarantee).

    Useful as a correctness oracle in tests and as the untuned ablation in
    the epsilon-trade-off benchmark.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if segment_size <= 0:
        raise ValueError("segment_size must be positive")
    n = keys.size
    segments = []
    for start in range(0, n, segment_size):
        end = min(start + segment_size, n)
        k0, k1 = float(keys[start]), float(keys[end - 1])
        if end - start == 1 or k1 == k0:
            slope = 0.0
        else:
            slope = (end - 1 - start) / (k1 - k0)
        segments.append(Segment(key=k0, slope=slope, anchor_pos=float(start),
                                first=start, last=end))
    return segments


def verify_epsilon(keys: np.ndarray, segments: list[Segment], epsilon: float) -> float:
    """Return the max absolute error of ``segments`` over ``keys``.

    Raises:
        AssertionError: if segments do not tile ``[0, n)`` exactly.
    """
    keys = np.asarray(keys, dtype=np.float64)
    n = keys.size
    covered = 0
    worst = 0.0
    for seg in segments:
        assert seg.first == covered, "segments must tile the array"
        covered = seg.last
        if seg.last > seg.first:
            xs = keys[seg.first:seg.last]
            preds = seg.slope * (xs - seg.key) + seg.anchor_pos
            errs = np.abs(preds - np.arange(seg.first, seg.last))
            worst = max(worst, float(errs.max()))
    assert covered == n, "segments must cover all keys"
    return worst
