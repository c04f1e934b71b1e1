"""KD-tree over points (bulk build, range, kNN, inserts).

The KD-tree is both a baseline for the multi-dimensional benchmarks and
the traditional component of the learned-KD hybrid (Approach 1 of the
survey: augment a traditional index with ML models).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableMultiDimIndex

__all__ = ["KDTreeIndex"]


class _KDNode:
    __slots__ = ("point", "value", "axis", "left", "right", "deleted")

    def __init__(self, point: np.ndarray, value: object, axis: int) -> None:
        self.point = point
        self.value = value
        self.axis = axis
        self.left: _KDNode | None = None
        self.right: _KDNode | None = None
        self.deleted = False


class KDTreeIndex(MutableMultiDimIndex):
    """Median-split KD-tree; deletes are tombstones (no rebalance)."""

    name = "kd-tree"

    def __init__(self) -> None:
        super().__init__()
        self._root: _KDNode | None = None
        self._size = 0

    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "KDTreeIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._size = int(pts.shape[0])
        self._built = True
        if pts.shape[0] == 0:
            self._root = None
            return self
        self._extent = float(np.max(pts.max(axis=0) - pts.min(axis=0))) or 1.0
        order = list(range(pts.shape[0]))
        self._root = self._build_recursive(pts, vals, order, 0)
        self.stats.size_bytes = self._size * (8 * self.dims + 40)
        return self

    def _build_recursive(self, pts: np.ndarray, vals: list, idxs: list[int], depth: int) -> _KDNode | None:
        if not idxs:
            return None
        axis = depth % self.dims
        idxs.sort(key=lambda i: float(pts[i, axis]))
        mid = len(idxs) // 2
        node = _KDNode(pts[idxs[mid]].copy(), vals[idxs[mid]], axis)
        node.left = self._build_recursive(pts, vals, idxs[:mid], depth + 1)
        node.right = self._build_recursive(pts, vals, idxs[mid + 1:], depth + 1)
        return node

    # -- queries ------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        node = self._root
        while node is not None:
            self.stats.nodes_visited += 1
            if not node.deleted and np.array_equal(node.point, q):
                return node.value
            axis = node.axis
            self.stats.comparisons += 1
            if q[axis] < node.point[axis]:
                node = node.left
            elif q[axis] > node.point[axis]:
                node = node.right
            else:
                # Equal on the split axis: the match may be on either side.
                result = self._exhaustive_find(node.left, q)
                if result is not None:
                    return result
                node = node.right
        return None

    def _exhaustive_find(self, node: _KDNode | None, q: np.ndarray) -> object | None:
        if node is None:
            return None
        self.stats.nodes_visited += 1
        if not node.deleted and np.array_equal(node.point, q):
            return node.value
        axis = node.axis
        if q[axis] < node.point[axis]:
            return self._exhaustive_find(node.left, q)
        if q[axis] > node.point[axis]:
            return self._exhaustive_find(node.right, q)
        result = self._exhaustive_find(node.left, q)
        if result is not None:
            return result
        return self._exhaustive_find(node.right, q)

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        out: list[tuple[tuple[float, ...], object]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            self.stats.nodes_visited += 1
            axis = node.axis
            coord = float(node.point[axis])
            if not node.deleted and np.all(node.point >= lo) and np.all(node.point <= hi):
                out.append((tuple(float(c) for c in node.point), node.value))
                self.stats.keys_scanned += 1
            if coord >= lo[axis]:
                stack.append(node.left)
            if coord <= hi[axis]:
                stack.append(node.right)
        return out

    def knn_query(self, point: Sequence[float], k: int) -> list[tuple[tuple[float, ...], object]]:
        """Classic branch-and-bound kNN with a bounded max-heap."""
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        if k <= 0 or self._root is None or not np.isfinite(q).all():
            return []
        heap: list[tuple[float, int, tuple, object]] = []  # max-heap via -dist
        counter = itertools.count()

        def visit(node: _KDNode | None) -> None:
            if node is None:
                return
            self.stats.nodes_visited += 1
            if not node.deleted:
                d = float(np.sum((node.point - q) ** 2))
                if len(heap) < k:
                    heapq.heappush(heap, (-d, next(counter), tuple(float(c) for c in node.point), node.value))
                elif d < -heap[0][0]:
                    heapq.heapreplace(heap, (-d, next(counter), tuple(float(c) for c in node.point), node.value))
            axis = node.axis
            diff = float(q[axis] - node.point[axis])
            near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
            visit(near)
            if len(heap) < k or diff * diff < -heap[0][0]:
                visit(far)

        visit(self._root)
        ordered = sorted(heap, key=lambda h: -h[0])
        return [(p, v) for _, _, p, v in ordered]

    # -- updates --------------------------------------------------------------
    def insert(self, point: Sequence[float], value: object | None = None) -> None:
        self._require_built()
        p = np.asarray(point, dtype=np.float64)
        if self.dims == 0:
            self.dims = int(p.size)
            self._extent = 1.0
        if self._root is None:
            self._root = _KDNode(p.copy(), value, 0)
            self._size = 1
            return
        # Equal-axis ties can hide an existing copy of the point in the
        # *other* subtree of the descent path, so check exhaustively first.
        existing = self._find_node(self._root, p)
        if existing is not None:
            existing.value = value
            if existing.deleted:
                existing.deleted = False
                self._size += 1
            return
        node = self._root
        while True:
            axis = node.axis
            if p[axis] < node.point[axis]:
                if node.left is None:
                    node.left = _KDNode(p.copy(), value, (axis + 1) % self.dims)
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _KDNode(p.copy(), value, (axis + 1) % self.dims)
                    break
                node = node.right
        self._size += 1

    def delete(self, point: Sequence[float]) -> bool:
        """Tombstone delete: mark the node, keep the structure."""
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        node = self._find_node(self._root, q)
        if node is None or node.deleted:
            return False
        node.deleted = True
        self._size -= 1
        return True

    def _find_node(self, node: _KDNode | None, q: np.ndarray) -> _KDNode | None:
        if node is None:
            return None
        if np.array_equal(node.point, q):
            return node
        axis = node.axis
        if q[axis] < node.point[axis]:
            return self._find_node(node.left, q)
        if q[axis] > node.point[axis]:
            return self._find_node(node.right, q)
        found = self._find_node(node.left, q)
        return found if found is not None else self._find_node(node.right, q)

    def __len__(self) -> int:
        return self._size
