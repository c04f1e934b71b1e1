"""Greedy error-bounded spline fitting (the RadixSpline corridor algorithm).

A *spline* here is a monotone piecewise-linear function through a subset
of the data points (the knots).  The greedy corridor algorithm of
RadixSpline scans the sorted keys once, keeping the interval of slopes for
which the line from the previous knot stays within ``max_error`` of every
intermediate point's position; when the corridor collapses, the previous
point becomes a new knot.

Unlike the PLA of :mod:`repro.models.pla`, the spline is continuous: each
piece starts exactly where the previous piece ended, which is what lets
RadixSpline store only the knots (no per-segment intercepts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SplineKnot", "GreedySpline", "fit_greedy_spline"]


@dataclass(frozen=True)
class SplineKnot:
    """A spline knot: key and its exact position."""

    key: float
    position: float


@dataclass
class GreedySpline:
    """A monotone piecewise-linear spline over sorted keys.

    Attributes:
        knots: the spline knots in key order.  Interpolate between the two
            knots bracketing a query key to get its predicted position.
        max_error: the construction error bound; every training key's
            predicted position differs from its true position by at most
            this amount.
    """

    knots: list[SplineKnot]
    max_error: float

    def predict(self, key: float) -> float:
        """Predicted position of ``key`` by linear interpolation."""
        knots = self.knots
        if not knots:
            return 0.0
        if key <= knots[0].key:
            return knots[0].position
        if key >= knots[-1].key:
            return knots[-1].position
        lo, hi = 0, len(knots) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if knots[mid].key <= key:
                lo = mid
            else:
                hi = mid
        left, right = knots[lo], knots[hi]
        if right.key == left.key:
            return left.position
        t = (key - left.key) / (right.key - left.key)
        return left.position + t * (right.position - left.position)

    def predict_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`predict`: a knot ``searchsorted`` (the first
        knot above each key is ``right``) and the same interpolation."""
        qs = np.asarray(keys, dtype=np.float64)
        kk = np.array([k.key for k in self.knots])
        kp = np.array([k.position for k in self.knots])
        if not kk.size:
            return np.zeros(qs.shape)
        right = np.minimum(np.searchsorted(kk, qs, side="right"), kk.size - 1)
        left = np.maximum(right - 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = kp[left] + (qs - kk[left]) / (kk[right] - kk[left]) * (kp[right] - kp[left])
        return np.where(qs <= kk[0], kp[0], np.where(qs >= kk[-1], kp[-1], inner))

    def segment_index(self, key: float) -> int:
        """Index of the spline segment containing ``key`` (for stats)."""
        knots = self.knots
        lo, hi = 0, max(len(knots) - 1, 0)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if knots[mid].key <= key:
                lo = mid
            else:
                hi = mid
        return lo

    @property
    def size_bytes(self) -> int:
        """Storage: two float64 per knot."""
        return 16 * len(self.knots)


def fit_greedy_spline(keys: np.ndarray, max_error: float) -> GreedySpline:
    """Fit an error-bounded greedy spline over sorted ``keys``.

    Args:
        keys: sorted 1-d key array; duplicate keys are collapsed onto the
            position of their first occurrence for the corridor test.
        max_error: corridor half-width in positions (>= 1 recommended).

    Returns:
        A :class:`GreedySpline` whose prediction error on the training
        keys is at most ``max_error``.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if max_error < 0:
        raise ValueError("max_error must be non-negative")
    n = keys.size
    if n == 0:
        return GreedySpline(knots=[], max_error=max_error)
    knots = [SplineKnot(float(keys[0]), 0.0)]
    if n == 1:
        return GreedySpline(knots=knots, max_error=max_error)

    base_key = float(keys[0])
    base_pos = 0.0
    slope_lo = -np.inf
    slope_hi = np.inf
    prev_key = base_key
    prev_pos = 0.0

    for i in range(1, n):
        key = float(keys[i])
        pos = float(i)
        dk = key - base_key
        if dk <= 0.0:
            # Duplicate of the base knot key.  The spline predicts one
            # value per key, so it fits iff the position is in-corridor.
            if abs(base_pos - pos) > max_error and prev_key > base_key:
                _emit_knot(knots, prev_key, prev_pos)
                base_key, base_pos = prev_key, prev_pos
                slope_lo, slope_hi = -np.inf, np.inf
            prev_key, prev_pos = key, pos
            continue
        exact_slope = (pos - base_pos) / dk
        if not np.isfinite(exact_slope) or exact_slope < slope_lo or exact_slope > slope_hi:
            # The line base -> current point leaves the cone: the previous
            # point becomes a knot (its exact line was verified in-cone,
            # so every intermediate point is within max_error of it).
            _emit_knot(knots, prev_key, prev_pos)
            base_key, base_pos = prev_key, prev_pos
            dk = key - base_key
            if dk <= 0.0:
                slope_lo, slope_hi = -np.inf, np.inf
            else:
                slope_lo = (pos - max_error - base_pos) / dk
                slope_hi = (pos + max_error - base_pos) / dk
        else:
            slope_lo = max(slope_lo, (pos - max_error - base_pos) / dk)
            slope_hi = min(slope_hi, (pos + max_error - base_pos) / dk)
        prev_key, prev_pos = key, pos

    last_key = float(keys[-1])
    if knots[-1].key < last_key:
        knots.append(SplineKnot(last_key, float(n - 1)))
    return GreedySpline(knots=knots, max_error=max_error)


def _emit_knot(knots: list[SplineKnot], key: float, position: float) -> None:
    """Append a knot, skipping degenerate duplicates of the last knot."""
    if knots and knots[-1].key >= key:
        return
    knots.append(SplineKnot(key, position))
