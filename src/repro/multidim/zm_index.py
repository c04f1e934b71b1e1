"""ZM-index — Wang et al., 2019: learned index over Z-order codes.

The canonical *projected space* learned multi-dimensional index
(Approach 2 of the survey): points are projected onto the Z-order curve,
the codes are sorted, and a learned one-dimensional index (here: PGM
segments) maps codes to positions.  Range queries mask the code-interval
slice of the query box and skip the curve's long excursions with BIGMIN;
kNN seeds its search radius from a code-order window around the query's
learned position.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.interfaces import (
    MultiDimIndex,
    as_object_array,
    as_pairs,
    box_mask,
    point_distances,
)
from repro.core.numeric import exact_float64
from repro.curves.capacity import require_code_budget
from repro.curves.zorder import bigmin, interleave, quantize, zencode_array
from repro.models.pla import Segment, segment_stream
from repro.onedim._search import bounded_binary_search, bounded_search_batch

__all__ = ["ZMIndex"]

_NO_ROWS = np.empty(0, dtype=np.int64)


def _use_mask(width: int, cells: int) -> bool:
    """Mask a box's whole code-interval slice, or walk it with BIGMIN.

    A box of ``cells`` lattice cells owns at most ``cells`` distinct
    codes.  A slice of ``width`` rows no wider than that is masked whole
    in one vectorised pass.  A wider slice holds more rows than the box
    has codes — the curve's off-box excursions, or runs of duplicate
    codes — so it is walked in blocks of ``cells`` rows that jump each
    excursion they end on and double across duplicate runs.  Both arms
    return the same rows (a hypothesis test pins it); the choice only
    moves the work, and needs no tuning constant.
    """
    return width <= cells


class ZMIndex(MultiDimIndex):
    """Z-order projection + learned model over the code sequence.

    Args:
        bits: bits per dimension for the Z-order quantisation (total code
            width is ``bits * d``; keep ``bits * d <= 62``).
        epsilon: error bound of the learned code -> position model.
    """

    name = "zm-index"

    def __init__(self, bits: int = 16, epsilon: int = 32) -> None:
        super().__init__()
        if not 1 <= bits <= 31:
            raise ValueError("bits must be in [1, 31]")
        if epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        self.bits = bits
        self.epsilon = epsilon
        self._points = np.empty((0, 2))
        self._values: list[object] = []
        self._codes = np.empty(0, dtype=np.int64)
        self._qcoords = np.empty((0, 2), dtype=np.int64)
        self._lo = np.zeros(2)
        self._hi = np.ones(2)
        self._segments: list[Segment] = []
        self._segment_keys = np.empty(0, dtype=np.int64)
        self._seg_slopes = np.empty(0)
        self._seg_anchors = np.empty(0)
        self._seg_firsts = np.empty(0, dtype=np.int64)
        self._seg_lasts = np.empty(0, dtype=np.int64)
        self._values_arr = np.empty(0, dtype=object)

    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "ZMIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._built = True
        if pts.shape[0] == 0:
            self._points = pts
            self._values = []
            return self
        require_code_budget(self.dims, self.bits)
        self._lo = pts.min(axis=0)
        self._hi = pts.max(axis=0)
        self._extent = float(np.max(self._hi - self._lo)) or 1.0
        codes = zencode_array(pts, self._lo, self._hi, self.bits).astype(np.int64)
        order = np.argsort(codes, kind="mergesort")
        self._codes = codes[order]
        self._points = pts[order]
        self._values_arr = as_object_array(vals)[order]
        # A comprehension, not tolist(): tolist() takes one exact-size
        # block that at this size comes from the heap, where it kept ~50 MB
        # of the freed build resident after the server closed (restore_mp
        # peak RSS +14%); the comprehension's growing block does not.
        self._values = [v for v in self._values_arr]
        self._qcoords = quantize(self._points, self._lo, self._hi, self.bits)

        # Learned 1-d model over the sorted codes (plus column views of
        # the segment parameters for the vectorized batch path).  Codes
        # can be up to 62 bits wide; exact_float64 rejects any build
        # whose codes would alias under the model's float64 arithmetic.
        self._segments = segment_stream(
            exact_float64(self._codes, what="zm-index code keys"), float(self.epsilon)
        )
        self._seg_slopes = np.array([seg.slope for seg in self._segments])
        self._seg_anchors = np.array([seg.anchor_pos for seg in self._segments])
        self._seg_firsts = np.array([seg.first for seg in self._segments], dtype=np.int64)
        self._seg_lasts = np.array([seg.last for seg in self._segments], dtype=np.int64)
        # Segment routing keys stay int64 (each anchor is the code at the
        # segment's first position) so searchsorted compares codes to
        # codes without a dtype mix.
        self._segment_keys = self._codes[self._seg_firsts]
        self.stats.size_bytes = (
            sum(seg.size_bytes for seg in self._segments)
            + 8 * int(self._codes.size)  # the code column
        )
        self.stats.extra["segments"] = len(self._segments)
        return self

    # -- learned locate ------------------------------------------------------
    def _locate_code(self, code: int) -> int:
        """Lower-bound position of ``code`` via the learned model."""
        n = self._codes.size
        self.stats.model_predictions += 1
        # The last segment anchored strictly below ``code`` holds the start
        # of ``code``'s run of equal codes, or ends right before it.
        seg_idx = int(np.searchsorted(self._segment_keys, code, side="left")) - 1
        seg_idx = min(max(seg_idx, 0), len(self._segments) - 1)
        seg = self._segments[seg_idx]
        predicted = int(np.clip(round(seg.predict(float(code))), seg.first, seg.last - 1))
        return bounded_binary_search(self._codes, code, predicted, self.epsilon + 1, self.stats)

    def _encode_point(self, point: np.ndarray) -> int:
        q = quantize(point[None, :], self._lo, self._hi, self.bits)[0]
        return interleave(q, self.bits)

    # -- queries -------------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        """Z-order locate, then a duplicate-bounded scan of the points
        sharing the query cell's code."""
        self._require_built()
        if self._codes.size == 0:
            return None
        q = np.asarray(point, dtype=np.float64)
        if np.any(q < self._lo) or np.any(q > self._hi):
            return None
        code = self._encode_point(q)
        pos = self._locate_code(code)
        # Several points can share a cell (code): scan the run.
        while pos < self._codes.size and self._codes[pos] == code:
            self.stats.keys_scanned += 1
            if np.array_equal(self._points[pos], q):
                return self._values[pos]
            pos += 1
        return None

    def point_query_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized batch point queries (element-wise equal to scalar).

        One ``zencode_array`` call projects the whole batch onto the
        curve, one segment-routing ``searchsorted`` plus an
        epsilon-bounded :func:`bounded_search_batch` locates every code,
        and a vectorized row comparison resolves the (dominant) case of a
        single point per cell; only queries landing in a multi-point cell
        fall back to the scalar run scan.
        """
        self._require_built()
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must have shape (m, d)")
        m = pts.shape[0]
        out = np.full(m, None, dtype=object)
        n = self._codes.size
        if m == 0 or n == 0:
            return out
        in_dom = np.all(pts >= self._lo, axis=1) & np.all(pts <= self._hi, axis=1)
        codes = zencode_array(pts, self._lo, self._hi, self.bits).astype(np.int64)
        seg_idx = np.clip(
            np.searchsorted(self._segment_keys, codes, side="left") - 1,
            0, len(self._segments) - 1,
        )
        raw = self._seg_slopes[seg_idx] * (codes - self._segment_keys[seg_idx]) \
            + self._seg_anchors[seg_idx]
        predicted = np.clip(
            np.rint(raw), self._seg_firsts[seg_idx], self._seg_lasts[seg_idx] - 1
        ).astype(np.int64)
        self.stats.model_predictions += m
        pos = bounded_search_batch(self._codes, codes, predicted,
                                   self.epsilon + 1, self.stats)
        cand = np.minimum(pos, n - 1)
        code_hit = in_dom & (pos < n) & (self._codes[cand] == codes)
        first_match = code_hit & np.all(self._points[cand] == pts, axis=1)
        hit_idx = np.nonzero(first_match)[0]
        self.stats.keys_scanned += int(code_hit.sum())
        out[hit_idx] = self._values_arr[cand[hit_idx]]
        # Cells holding several points: scan the rest of the code run
        # exactly like the scalar path.
        for i in np.nonzero(code_hit & ~first_match)[0]:
            j = int(pos[i]) + 1
            code = codes[i]
            while j < n and self._codes[j] == code:
                self.stats.keys_scanned += 1
                if np.array_equal(self._points[j], pts[i]):
                    out[i] = self._values[j]
                    break
                j += 1
        return out

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        return as_pairs(*self._range_columns(low, high))

    def _range_columns(self, low: Sequence[float], high: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Code-interval slice of the box, filtered by a vectorised mask.

        The box's corners give the code interval ``[z_lo, z_hi]``: the
        learned model locates ``z_lo`` and one ``searchsorted`` closes the
        slice.  A slice no wider than the box has cells is masked whole;
        a wider one is walked in blocks, and a block that ends on the
        curve's off-box excursion jumps it with BIGMIN (see
        :func:`_use_mask`).  ``keys_scanned`` counts the rows masked and
        ``nodes_visited`` the BIGMIN jumps taken.
        """
        rows = self._box_rows(np.asarray(low, dtype=np.float64),
                              np.asarray(high, dtype=np.float64))
        return self._points[rows], self._values_arr[rows]

    def _box_rows(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Ascending positions of the stored points inside ``[lo, hi]``."""
        n = self._codes.size
        # ``lo <= hi`` is false for inverted boxes and NaN corners alike.
        if n == 0 or not np.all(lo <= hi):
            return _NO_ROWS
        clo = np.maximum(lo, self._lo)
        chi = np.minimum(hi, self._hi)
        if np.any(chi < clo):
            return _NO_ROWS
        lo_q, hi_q = quantize(np.vstack((clo, chi)), self._lo, self._hi, self.bits).tolist()
        z_lo = self._encode_coords(tuple(lo_q))
        z_hi = self._encode_coords(tuple(hi_q))
        start = self._locate_code(z_lo)
        end = start + int(np.searchsorted(self._codes[start:], z_hi, side="right"))
        cells = math.prod(b - a + 1 for a, b in zip(lo_q, hi_q))
        if _use_mask(end - start, cells):
            self.stats.keys_scanned += end - start
            return start + np.flatnonzero(box_mask(self._points[start:end], lo, hi))
        return self._walk_rows(start, end, lo, hi, lo_q, hi_q, cells)

    def _walk_rows(self, start: int, end: int, lo: np.ndarray, hi: np.ndarray,
                   lo_q: list[int], hi_q: list[int], block: int) -> np.ndarray:
        """The wide-slice arm of :meth:`_box_rows`: mask ``block`` rows at
        a time; a block ending inside the box doubles the next one, a
        block ending off the box jumps the excursion with BIGMIN."""
        qlo = np.asarray(lo_q)
        qhi = np.asarray(hi_q)
        box_lo, box_hi = tuple(lo_q), tuple(hi_q)
        parts = [_NO_ROWS]
        i, size = start, block
        while i < end:
            j = min(i + size, end)
            self.stats.keys_scanned += j - i
            in_q = box_mask(self._qcoords[i:j], qlo, qhi)
            rows = i + np.flatnonzero(in_q)
            parts.append(rows[box_mask(self._points[rows], lo, hi)])
            if j == end:
                break
            if in_q[-1]:
                i, size = j, 2 * size
                continue
            nxt = bigmin(int(self._codes[j - 1]), box_lo, box_hi, self.dims, self.bits)
            self.stats.nodes_visited += 1
            if nxt is None:
                break
            i = j + int(np.searchsorted(self._codes[j:end], nxt, side="left"))
            size = block
        return np.concatenate(parts)

    def _knn_seed_radius(self, q: np.ndarray, k: int) -> float:
        """The k-th distance among the ~4k rows around ``q``'s learned
        position on the curve.

        ZM's kNN locates the query's Z-code with the learned model and
        reads a code-order window around it.  At least ``k`` points lie
        within the window's k-th distance, so the first box the generic
        kNN draws from this radius already holds the answer.
        """
        n = self._codes.size
        if n == 0 or not np.all(np.isfinite(q)):
            return super()._knn_seed_radius(q, k)
        pos = self._locate_code(self._encode_point(q))
        width = min(n, 4 * k)
        start = min(max(pos - width // 2, 0), n - width)
        self.stats.keys_scanned += width
        dists = point_distances(self._points[start:start + width], q)
        kth = min(k, width) - 1
        return float(np.partition(dists, kth)[kth])

    def _encode_coords(self, coords: tuple[int, ...]) -> int:
        return interleave(coords, self.bits)

    def __len__(self) -> int:
        return int(self._codes.size)
