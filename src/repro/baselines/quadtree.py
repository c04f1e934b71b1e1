"""Point-region quadtree (Samet 1984) for 2-d points.

A classic spatial baseline: the space is recursively split into four
quadrants once a cell exceeds its capacity.  Only 2-d data is supported
(the quadtree's fan-out is 2^d; for d > 2 use the KD-tree).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableMultiDimIndex

__all__ = ["QuadTreeIndex"]


class _QuadNode:
    __slots__ = ("cx", "cy", "half_w", "half_h", "points", "children")

    def __init__(self, cx: float, cy: float, half_w: float, half_h: float) -> None:
        self.cx = cx
        self.cy = cy
        self.half_w = half_w
        self.half_h = half_h
        self.points: list[tuple[np.ndarray, object]] | None = []
        self.children: list["_QuadNode"] | None = None

    def contains(self, x: float, y: float) -> bool:
        return (self.cx - self.half_w <= x <= self.cx + self.half_w
                and self.cy - self.half_h <= y <= self.cy + self.half_h)

    def quadrant_of(self, x: float, y: float) -> int:
        return (2 if y >= self.cy else 0) + (1 if x >= self.cx else 0)

    def min_dist_sq(self, q: np.ndarray) -> float:
        dx = max(abs(float(q[0]) - self.cx) - self.half_w, 0.0)
        dy = max(abs(float(q[1]) - self.cy) - self.half_h, 0.0)
        return dx * dx + dy * dy


class QuadTreeIndex(MutableMultiDimIndex):
    """PR quadtree over 2-d points.

    Args:
        capacity: points per cell before it splits (default 16).
        max_depth: hard split depth limit; cells at the limit accept
            overflow (handles duplicate points gracefully).
    """

    name = "quadtree"

    def __init__(self, capacity: int = 16, max_depth: int = 24) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.max_depth = max_depth
        self._root: _QuadNode | None = None
        self._size = 0

    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "QuadTreeIndex":
        pts, vals = self._prepare_points(points, values)
        if pts.size and pts.shape[1] != 2:
            raise ValueError("quadtree supports 2-d points only")
        self.dims = 2
        self._size = 0
        self._built = True
        if pts.shape[0] == 0:
            self._root = None
            return self
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        self._extent = float(span.max())
        centre = (lo + hi) / 2.0
        self._root = _QuadNode(float(centre[0]), float(centre[1]),
                               float(span[0] / 2) * 1.001, float(span[1] / 2) * 1.001)
        for i in range(pts.shape[0]):
            self._insert_point(pts[i], vals[i], count=True)
        self.stats.size_bytes = self._size * 40
        return self

    # -- insert helpers -----------------------------------------------------
    def _insert_point(self, p: np.ndarray, value: object, count: bool) -> None:
        """Level-bounded descent (root growth doubles the box each step,
        splits cap depth at ``max_depth``) followed by a capacity-bounded
        leaf scan — leaves split past ``capacity`` points."""
        root = self._root
        assert root is not None
        x, y = float(p[0]), float(p[1])
        # Grow the root while the point is outside its box.
        while not root.contains(x, y):
            root = self._grow_root(root, x, y)
        self._root = root
        node = root
        depth = 0
        while node.children is not None:
            node = node.children[node.quadrant_of(x, y)]
            depth += 1
        assert node.points is not None
        for i, (existing, _) in enumerate(node.points):
            if np.array_equal(existing, p):
                node.points[i] = (p.copy(), value)
                return
        node.points.append((p.copy(), value))
        if count:
            self._size += 1
        if len(node.points) > self.capacity and depth < self.max_depth:
            self._split(node)

    def _grow_root(self, root: _QuadNode, x: float, y: float) -> _QuadNode:
        """Double the root's box towards (x, y)."""
        new_half_w = root.half_w * 2
        new_half_h = root.half_h * 2
        cx = root.cx + (root.half_w if x > root.cx else -root.half_w)
        cy = root.cy + (root.half_h if y > root.cy else -root.half_h)
        new_root = _QuadNode(cx, cy, new_half_w, new_half_h)
        new_root.points = None
        new_root.children = [
            _QuadNode(cx - new_half_w / 2, cy - new_half_h / 2, new_half_w / 2, new_half_h / 2),
            _QuadNode(cx + new_half_w / 2, cy - new_half_h / 2, new_half_w / 2, new_half_h / 2),
            _QuadNode(cx - new_half_w / 2, cy + new_half_h / 2, new_half_w / 2, new_half_h / 2),
            _QuadNode(cx + new_half_w / 2, cy + new_half_h / 2, new_half_w / 2, new_half_h / 2),
        ]
        # Place the old root where it belongs among the new children.
        quadrant = new_root.quadrant_of(root.cx, root.cy)
        new_root.children[quadrant] = root
        return new_root

    def _split(self, node: _QuadNode) -> None:
        hw, hh = node.half_w / 2, node.half_h / 2
        node.children = [
            _QuadNode(node.cx - hw, node.cy - hh, hw, hh),
            _QuadNode(node.cx + hw, node.cy - hh, hw, hh),
            _QuadNode(node.cx - hw, node.cy + hh, hw, hh),
            _QuadNode(node.cx + hw, node.cy + hh, hw, hh),
        ]
        points = node.points or []
        node.points = None
        for p, v in points:
            child = node.children[node.quadrant_of(float(p[0]), float(p[1]))]
            assert child.points is not None
            child.points.append((p, v))

    # -- queries ---------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        """Quadrant descent to a leaf, then a capacity-bounded point scan
        (leaves split once they exceed ``leaf_capacity`` points)."""
        self._require_built()
        if self._root is None:
            return None
        q = np.asarray(point, dtype=np.float64)
        x, y = float(q[0]), float(q[1])
        node = self._root
        if not node.contains(x, y):
            return None
        while node.children is not None:
            self.stats.nodes_visited += 1
            node = node.children[node.quadrant_of(x, y)]
        assert node.points is not None
        for p, v in node.points:
            self.stats.keys_scanned += 1
            if np.array_equal(p, q):
                return v
        return None

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        if self._root is None:
            return []
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        out: list[tuple[tuple[float, ...], object]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.nodes_visited += 1
            if (node.cx + node.half_w < lo[0] or node.cx - node.half_w > hi[0]
                    or node.cy + node.half_h < lo[1] or node.cy - node.half_h > hi[1]):
                continue
            if node.children is not None:
                stack.extend(node.children)
            else:
                assert node.points is not None
                for p, v in node.points:
                    self.stats.keys_scanned += 1
                    if lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]:
                        out.append(((float(p[0]), float(p[1])), v))
        return out

    def knn_query(self, point: Sequence[float], k: int) -> list[tuple[tuple[float, ...], object]]:
        """Best-first kNN over cells ordered by min distance."""
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        if k <= 0 or self._root is None or not np.isfinite(q).all():
            return []
        counter = itertools.count()
        heap: list = [(0.0, next(counter), self._root, False)]
        out: list[tuple[tuple[float, ...], object]] = []
        while heap and len(out) < k:
            dist, _, item, is_point = heapq.heappop(heap)
            if is_point:
                p, v = item
                out.append(((float(p[0]), float(p[1])), v))
                continue
            node = item
            self.stats.nodes_visited += 1
            if node.children is not None:
                for child in node.children:
                    heapq.heappush(heap, (child.min_dist_sq(q), next(counter), child, False))
            else:
                for p, v in node.points or []:
                    d = float(np.sum((p - q) ** 2))
                    heapq.heappush(heap, (d, next(counter), (p, v), True))
                    self.stats.keys_scanned += 1
        return out

    # -- updates ------------------------------------------------------------------
    def insert(self, point: Sequence[float], value: object | None = None) -> None:
        self._require_built()
        p = np.asarray(point, dtype=np.float64)
        if self._root is None:
            self.dims = 2
            self._extent = 1.0
            self._root = _QuadNode(float(p[0]), float(p[1]), 1.0, 1.0)
        existing = self.point_query(p)
        self._insert_point(p, value, count=existing is None)
        self.stats.size_bytes = self._size * 40

    def delete(self, point: Sequence[float]) -> bool:
        self._require_built()
        if self._root is None:
            return False
        q = np.asarray(point, dtype=np.float64)
        x, y = float(q[0]), float(q[1])
        node = self._root
        if not node.contains(x, y):
            return False
        while node.children is not None:
            node = node.children[node.quadrant_of(x, y)]
        assert node.points is not None
        for i, (p, _) in enumerate(node.points):
            if np.array_equal(p, q):
                del node.points[i]
                self._size -= 1
                return True
        return False

    def __len__(self) -> int:
        return self._size
