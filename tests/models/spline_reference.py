"""The per-key greedy spline corridor: the oracle for ``spline_knots``.

This is RadixSpline's one-point-at-a-time corridor loop, which
``repro.models.pla.spline_knots`` replaced with the block cone kernel.
It keeps the interval of slopes for which the line from the last knot
stays within ``max_error`` of every point seen; when a point's exact
slope leaves it, the previous point becomes a knot.  The kernel must
return the same knots, float for float.
"""

from __future__ import annotations

import numpy as np


def reference_spline_knots(keys, max_error) -> list[tuple[float, float]]:
    """The ``(key, position)`` knots of the greedy corridor over sorted ``keys``."""
    keys = np.asarray(keys, dtype=np.float64)
    if max_error < 0:
        raise ValueError("max_error must be non-negative")
    n = keys.size
    if n == 0:
        return []
    knots = [(float(keys[0]), 0.0)]
    if n == 1:
        return knots

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
    if knots[-1][0] < last_key:
        knots.append((last_key, float(n - 1)))
    return knots


def _emit_knot(knots: list[tuple[float, float]], key: float, position: float) -> None:
    """Append a knot, skipping degenerate duplicates of the last knot."""
    if knots and knots[-1][0] >= key:
        return
    knots.append((key, position))
