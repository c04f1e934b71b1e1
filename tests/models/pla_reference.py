"""The one-point-at-a-time shrinking cone: the oracle for ``segment_stream``.

This is the scalar loop that ``segment_stream``'s block kernel replaced.
It walks the keys once, narrowing the anchor's feasible slope interval
with each point and cutting when the interval empties.  The kernel must
return the same segments, float for float.
"""

from __future__ import annotations

import numpy as np

from repro.models.pla import Segment


def reference_segment_stream(keys, epsilon, positions=None) -> list[Segment]:
    keys = np.asarray(keys, dtype=np.float64)
    n = keys.size
    if n == 0:
        return []
    if positions is None:
        positions = np.arange(n, dtype=np.float64)
    else:
        positions = np.asarray(positions, dtype=np.float64)

    segments: list[Segment] = []
    start = 0
    anchor_key = float(keys[0])
    anchor_pos = float(positions[0])
    slope_lo = -np.inf
    slope_hi = np.inf

    for i in range(1, n):
        key = float(keys[i])
        pos = float(positions[i])
        dk = key - anchor_key
        if dk <= 0.0:
            # Duplicate of the anchor key: any slope predicts anchor_pos
            # here, so the point fits iff |anchor_pos - pos| <= epsilon.
            if abs(anchor_pos - pos) <= epsilon:
                continue
            new_lo, new_hi = 1.0, -1.0  # force a break
        else:
            lo_candidate = (pos - epsilon - anchor_pos) / dk
            hi_candidate = (pos + epsilon - anchor_pos) / dk
            if not (np.isfinite(lo_candidate) and np.isfinite(hi_candidate)):
                # Denormal-width gap overflows the slope: force a break.
                lo_candidate, hi_candidate = 1.0, -1.0
            new_lo = max(slope_lo, lo_candidate)
            new_hi = min(slope_hi, hi_candidate)
        if new_lo > new_hi:
            segments.append(Segment(
                key=anchor_key, slope=_pick_slope(slope_lo, slope_hi),
                anchor_pos=anchor_pos, first=start, last=i,
            ))
            start = i
            anchor_key = key
            anchor_pos = pos
            slope_lo = -np.inf
            slope_hi = np.inf
        else:
            slope_lo, slope_hi = new_lo, new_hi

    segments.append(Segment(
        key=anchor_key, slope=_pick_slope(slope_lo, slope_hi),
        anchor_pos=anchor_pos, first=start, last=n,
    ))
    return segments


def _pick_slope(lo: float, hi: float) -> float:
    if not np.isfinite(lo) and not np.isfinite(hi):
        return 0.0
    if not np.isfinite(lo):
        return hi
    if not np.isfinite(hi):
        return lo
    return (lo + hi) / 2.0

