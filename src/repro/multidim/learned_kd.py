"""Per-dimension learned index (the survey's Approach 3).

One learned one-dimensional index per dimension, with no projection
function: each dimension's values are sorted and indexed by PGM
segments.  A query is answered through the most *selective* dimension —
the one whose learned index brackets the fewest candidates — and the
candidates are filtered against the full predicate.  This is the
"LearnedKD" family (e.g. Yongxin et al., 2020), which trades the strong
pruning of true multi-dimensional structures for trivially reusable 1-d
machinery.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import MultiDimIndex
from repro.models.pla import LearnedColumn

__all__ = ["LearnedKDIndex"]


class _DimIndex:
    """Learned 1-d index over one dimension's sorted values."""

    __slots__ = ("sorted_vals", "row_ids", "model")

    def __init__(self, column: np.ndarray, epsilon: int) -> None:
        order = np.argsort(column, kind="mergesort")
        self.sorted_vals = column[order]
        self.row_ids = order
        self.model = LearnedColumn(self.sorted_vals, epsilon)

    @property
    def size_bytes(self) -> int:
        return self.model.size_bytes + self.row_ids.size * 16


class LearnedKDIndex(MultiDimIndex):
    """One learned 1-d index per dimension; queries pick the best one.

    Args:
        epsilon: PGM error bound for every per-dimension index.
    """

    name = "learned-kd"

    def __init__(self, epsilon: int = 32) -> None:
        super().__init__()
        if epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        self.epsilon = epsilon
        self._points = np.empty((0, 2))
        self._values: list[object] = []
        self._dim_indexes: list[_DimIndex] = []

    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "LearnedKDIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._points = pts
        self._values = vals
        self._built = True
        self._dim_indexes = []
        if pts.shape[0] == 0:
            return self
        self._extent = float(np.max(pts.max(axis=0) - pts.min(axis=0))) or 1.0
        for d in range(self.dims):
            self._dim_indexes.append(_DimIndex(pts[:, d].copy(), self.epsilon))
        self.stats.size_bytes = sum(di.size_bytes for di in self._dim_indexes)
        self.stats.extra["segments_per_dim"] = [len(di.model) for di in self._dim_indexes]
        return self

    def point_query(self, point: Sequence[float]) -> object | None:
        """Model-guided locate on dim 0, then a duplicate-bounded scan of
        the equal-coordinate run."""
        self._require_built()
        if self._points.shape[0] == 0:
            return None
        q = np.asarray(point, dtype=np.float64)
        di = self._dim_indexes[0]
        pos = di.model.locate(di.sorted_vals, float(q[0]), self.stats)
        while pos < di.sorted_vals.size and di.sorted_vals[pos] == q[0]:
            row = int(di.row_ids[pos])
            self.stats.keys_scanned += 1
            if np.array_equal(self._points[row], q):
                return self._values[row]
            pos += 1
        return None

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        if self._points.shape[0] == 0:
            return []
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        if np.any(hi < lo):
            return []
        # Pick the most selective dimension by bracketing each one.
        best_dim = 0
        best_span: tuple[int, int] | None = None
        for d, di in enumerate(self._dim_indexes):
            first = di.model.locate(di.sorted_vals, float(lo[d]), self.stats)
            last = int(np.searchsorted(di.sorted_vals, hi[d], side="right"))
            if best_span is None or (last - first) < (best_span[1] - best_span[0]):
                best_span = (first, last)
                best_dim = d
        di = self._dim_indexes[best_dim]
        first, last = best_span
        out: list[tuple[tuple[float, ...], object]] = []
        for pos in range(first, last):
            row = int(di.row_ids[pos])
            p = self._points[row]
            self.stats.keys_scanned += 1
            if np.all(p >= lo) and np.all(p <= hi):
                out.append((tuple(float(c) for c in p), self._values[row]))
        return out

    def __len__(self) -> int:
        return int(self._points.shape[0])
