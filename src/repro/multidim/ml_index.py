"""ML-index — Davitkova et al., 2020: pivot projection + learned 1-d index.

The ML-index projects points onto one dimension with an iDistance-style
mapping: each point is assigned to its nearest pivot ``i`` and keyed as
``i * C + dist(point, pivot_i)`` where ``C`` exceeds any within-partition
distance, so partitions occupy disjoint key stripes.  A learned
one-dimensional index (PGM segments) over the keys replaces iDistance's
B+-tree.  Range and kNN queries scan, per pivot, the distance interval
that could intersect the query region.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import MultiDimIndex
from repro.models.pla import LearnedColumn

__all__ = ["MLIndex"]


def _kmeans(points: np.ndarray, k: int, iterations: int = 12, seed: int = 5) -> np.ndarray:
    """Plain k-means (deterministic seed) returning the centroids."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    centroids = points[rng.choice(n, size=min(k, n), replace=False)].copy()
    for _ in range(iterations):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        assign = np.argmin(dists, axis=1)
        for c in range(centroids.shape[0]):
            members = points[assign == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    return centroids


class MLIndex(MultiDimIndex):
    """iDistance-style learned multi-dimensional index.

    Args:
        num_pivots: number of pivots (k-means centroids).
        epsilon: error bound of the learned key -> position model.
    """

    name = "ml-index"

    def __init__(self, num_pivots: int = 16, epsilon: int = 32) -> None:
        super().__init__()
        if num_pivots < 1:
            raise ValueError("num_pivots must be >= 1")
        self.num_pivots = num_pivots
        self.epsilon = epsilon
        self._points = np.empty((0, 2))
        self._values: list[object] = []
        self._keys = np.empty(0)
        self._pivots = np.empty((0, 2))
        self._stripe = 1.0
        self._model = LearnedColumn(self._keys, epsilon)

    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "MLIndex":
        pts, vals = self._prepare_points(points, values)
        if pts.shape[0] == 0:
            self.dims = int(pts.shape[1]) if pts.size else 0
            self._built = True
            self._points = pts
            return self
        # The squared distances overflow once coordinates pass ~1e154;
        # the keys then come out non-finite and the build is refused.
        with np.errstate(over="ignore", invalid="ignore"):
            pivots = _kmeans(pts, self.num_pivots)
            dists = np.linalg.norm(pts[:, None, :] - pivots[None, :, :], axis=2)
            assign = np.argmin(dists, axis=1)
            dist_to_pivot = dists[np.arange(pts.shape[0]), assign]
            # Stripe width: strictly larger than any within-partition distance.
            stripe = float(dist_to_pivot.max()) * 1.01 + 1e-9
            keys = assign * stripe + dist_to_pivot
        if not np.isfinite(keys).all():
            raise ValueError("ml-index: coordinates too large for iDistance keys "
                             "(a point-to-pivot distance overflows float64)")
        self.dims = int(pts.shape[1])
        self._built = True
        self._extent = float(np.max(pts.max(axis=0) - pts.min(axis=0))) or 1.0
        self._pivots = pivots
        self._stripe = stripe

        order = np.argsort(keys, kind="mergesort")
        self._keys = keys[order]
        self._points = pts[order]
        self._values = [vals[i] for i in order]

        self._model = LearnedColumn(self._keys, self.epsilon)
        self.stats.size_bytes = (
            self._model.size_bytes
            + self._pivots.size * 8
            + 8 * int(self._keys.size)
        )
        self.stats.extra["segments"] = len(self._model)
        return self

    def _key_of(self, point: np.ndarray) -> float:
        """Scalarize a point as (nearest pivot, distance) — iDistance.

        Config-bounded: ``self._pivots`` holds ``num_pivots`` rows fixed
        at construction, so the distance computation is O(1) in n.
        """
        dists = np.linalg.norm(self._pivots - point, axis=1)
        pivot = int(np.argmin(dists))
        return pivot * self._stripe + float(dists[pivot])

    # -- queries ---------------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        """Learned locate plus a duplicate-bounded scan of the
        equal-iDistance-key run around the predicted position."""
        self._require_built()
        if self._keys.size == 0:
            return None
        q = np.asarray(point, dtype=np.float64)
        key = self._key_of(q)
        pos = self._model.locate(self._keys, key, self.stats)
        # Distance collisions are possible: scan the equal-key run, with a
        # small tolerance for floating-point distance jitter.
        i = pos
        while i < self._keys.size and self._keys[i] <= key + 1e-9:
            self.stats.keys_scanned += 1
            if np.array_equal(self._points[i], q):
                return self._values[i]
            i += 1
        i = pos - 1
        while i >= 0 and self._keys[i] >= key - 1e-9:
            self.stats.keys_scanned += 1
            if np.array_equal(self._points[i], q):
                return self._values[i]
            i -= 1
        return None

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        if self._keys.size == 0:
            return []
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        if np.any(hi < lo):
            return []
        hits: set[int] = set()
        corners = self._box_corners(lo, hi)
        for pivot_id in range(self._pivots.shape[0]):
            pivot = self._pivots[pivot_id]
            # Min distance from pivot to the box; max distance to a corner.
            clamped = np.clip(pivot, lo, hi)
            d_min = float(np.linalg.norm(pivot - clamped))
            d_max = float(np.max(np.linalg.norm(corners - pivot, axis=1)))
            if d_min > self._stripe:
                continue  # no partition member can reach the box
            lo_key = pivot_id * self._stripe + d_min
            # Within-partition distances never reach `stripe`, so the scan
            # can stop at the stripe boundary even for huge boxes.
            hi_key = pivot_id * self._stripe + min(d_max, self._stripe)
            i = self._model.locate(self._keys, lo_key - 1e-9, self.stats)
            while i < self._keys.size and self._keys[i] <= hi_key + 1e-9:
                p = self._points[i]
                self.stats.keys_scanned += 1
                if i not in hits and np.all(p >= lo) and np.all(p <= hi):
                    hits.add(i)
                i += 1
        return [
            (tuple(float(c) for c in self._points[i]), self._values[i])
            for i in sorted(hits)
        ]

    @staticmethod
    def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        d = lo.size
        corners = np.empty((1 << d, d))
        for mask in range(1 << d):
            for dim in range(d):
                corners[mask, dim] = hi[dim] if (mask >> dim) & 1 else lo[dim]
        return corners

    def __len__(self) -> int:
        return int(self._keys.size)
