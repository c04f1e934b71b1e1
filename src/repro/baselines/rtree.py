"""R-tree (Guttman 1984) with STR bulk loading.

The R-tree is the traditional multi-dimensional index that most learned
spatial indexes either replace (pure) or enhance (hybrid, e.g. the
"AI+R"-tree).  This implementation indexes points (degenerate rectangles):

* :meth:`RTreeIndex.build` bulk-loads with Sort-Tile-Recursive packing,
  the standard way to get well-shaped leaves from static data;
* :meth:`RTreeIndex.insert` follows Guttman's ChooseLeaf with quadratic
  split;
* range queries descend overlapping subtrees; kNN uses best-first search
  over a priority queue of minimum distances.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableMultiDimIndex

__all__ = ["RTreeIndex"]


class _RNode:
    """An R-tree node with its bounding box."""

    __slots__ = ("leaf", "entries", "mbr_lo", "mbr_hi")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        # Leaf entries: (point ndarray, value).  Internal entries: _RNode.
        self.entries: list = []
        self.mbr_lo: np.ndarray | None = None
        self.mbr_hi: np.ndarray | None = None

    def recompute_mbr(self) -> None:
        if not self.entries:
            self.mbr_lo = self.mbr_hi = None
            return
        if self.leaf:
            pts = np.array([p for p, _ in self.entries])
            self.mbr_lo = pts.min(axis=0)
            self.mbr_hi = pts.max(axis=0)
        else:
            self.mbr_lo = np.min([c.mbr_lo for c in self.entries], axis=0)
            self.mbr_hi = np.max([c.mbr_hi for c in self.entries], axis=0)

    def extend_mbr(self, lo: np.ndarray, hi: np.ndarray) -> None:
        if self.mbr_lo is None:
            self.mbr_lo = lo.copy()
            self.mbr_hi = hi.copy()
        else:
            self.mbr_lo = np.minimum(self.mbr_lo, lo)
            self.mbr_hi = np.maximum(self.mbr_hi, hi)


def _enlargement(node: _RNode, point: np.ndarray) -> float:
    lo = np.minimum(node.mbr_lo, point)
    hi = np.maximum(node.mbr_hi, point)
    new_area = float(np.prod(hi - lo))
    old_area = float(np.prod(node.mbr_hi - node.mbr_lo))
    return new_area - old_area


def _min_dist_sq(lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> float:
    clamped = np.clip(q, lo, hi)
    diff = q - clamped
    return float(diff @ diff)


class RTreeIndex(MutableMultiDimIndex):
    """Point R-tree with STR packing and Guttman dynamic inserts.

    Args:
        max_entries: node capacity M (default 32).
        min_entries: minimum fill m used by the quadratic split
            (default ``max_entries // 3``).
    """

    name = "r-tree"

    def __init__(self, max_entries: int = 32, min_entries: int | None = None) -> None:
        super().__init__()
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = min_entries or max(2, max_entries // 3)
        self._root = _RNode(leaf=True)
        self._size = 0

    # -- construction (STR) ------------------------------------------------
    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "RTreeIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._size = int(pts.shape[0])
        self._built = True
        if pts.shape[0] == 0:
            self._root = _RNode(leaf=True)
            return self
        self._extent = float(np.max(pts.max(axis=0) - pts.min(axis=0))) or 1.0
        entries = [(pts[i], vals[i]) for i in range(pts.shape[0])]
        leaves = self._str_pack_leaves(entries)
        self._root = self._pack_upward(leaves)
        self._refresh_stats()
        return self

    def _str_pack_leaves(self, entries: list) -> list[_RNode]:
        """Sort-Tile-Recursive packing of leaf entries."""
        cap = self.max_entries
        d = self.dims

        def tile(items: list, dim: int) -> list[list]:
            if dim == d - 1:
                items = sorted(items, key=lambda e: float(e[0][dim]))
                return [items[i:i + cap] for i in range(0, len(items), cap)]
            # Number of slabs along this dimension.
            remaining_dims = d - dim
            n = len(items)
            leaves_needed = int(np.ceil(n / cap))
            slabs = max(1, int(np.ceil(leaves_needed ** (1.0 / remaining_dims))))
            per_slab = int(np.ceil(n / slabs))
            items = sorted(items, key=lambda e: float(e[0][dim]))
            groups: list[list] = []
            for i in range(0, n, per_slab):
                groups.extend(tile(items[i:i + per_slab], dim + 1))
            return groups

        leaves = []
        for group in tile(entries, 0):
            node = _RNode(leaf=True)
            node.entries = group
            node.recompute_mbr()
            leaves.append(node)
        return leaves

    def _pack_upward(self, nodes: list[_RNode]) -> _RNode:
        while len(nodes) > 1:
            parents = []
            # Sort by MBR centre along the first dimension for locality.
            nodes = sorted(nodes, key=lambda n: float(n.mbr_lo[0] + n.mbr_hi[0]))
            for i in range(0, len(nodes), self.max_entries):
                parent = _RNode(leaf=False)
                parent.entries = nodes[i:i + self.max_entries]
                parent.recompute_mbr()
                parents.append(parent)
            nodes = parents
        return nodes[0]

    def _refresh_stats(self) -> None:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.leaf:
                stack.extend(node.entries)
        self.stats.size_bytes = count * (32 + 16 * max(self.dims, 1)) + self._size * 8 * max(self.dims, 1)
        self.stats.extra["nodes"] = count

    # -- queries -------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        return self._point_search(self._root, q)

    def _point_search(self, node: _RNode, q: np.ndarray) -> object | None:
        """MBR-pruned descent for an exact point.

        Fanout-bounded: each node holds at most ``max_entries`` entries,
        so the leaf scan and the per-node child loop are O(1); the
        recursion depth follows the balanced-tree premise.
        """
        self.stats.nodes_visited += 1
        if node.mbr_lo is None:
            return None
        if np.any(q < node.mbr_lo) or np.any(q > node.mbr_hi):
            return None
        if node.leaf:
            for p, v in node.entries:
                self.stats.keys_scanned += 1
                if np.array_equal(p, q):
                    return v
            return None
        for child in node.entries:
            result = self._point_search(child, q)
            if result is not None:
                return result
        return None

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        out: list[tuple[tuple[float, ...], object]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.nodes_visited += 1
            if node.mbr_lo is None:
                continue
            if np.any(node.mbr_hi < lo) or np.any(node.mbr_lo > hi):
                continue
            if node.leaf:
                for p, v in node.entries:
                    self.stats.keys_scanned += 1
                    if np.all(p >= lo) and np.all(p <= hi):
                        out.append((tuple(float(c) for c in p), v))
            else:
                stack.extend(node.entries)
        return out

    def knn_query(self, point: Sequence[float], k: int) -> list[tuple[tuple[float, ...], object]]:
        """Best-first kNN over a min-heap of node/point distances."""
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        if k <= 0 or self._size == 0 or not np.isfinite(q).all():
            return []
        counter = itertools.count()
        heap: list[tuple[float, int, object, bool]] = []
        heapq.heappush(heap, (0.0, next(counter), self._root, False))
        out: list[tuple[tuple[float, ...], object]] = []
        while heap and len(out) < k:
            dist, _, item, is_point = heapq.heappop(heap)
            if is_point:
                p, v = item
                out.append((tuple(float(c) for c in p), v))
                continue
            node = item
            self.stats.nodes_visited += 1
            if node.mbr_lo is None:
                continue
            if node.leaf:
                for p, v in node.entries:
                    self.stats.keys_scanned += 1
                    d = float(np.sum((p - q) ** 2))
                    heapq.heappush(heap, (d, next(counter), (p, v), True))
            else:
                for child in node.entries:
                    d = _min_dist_sq(child.mbr_lo, child.mbr_hi, q)
                    heapq.heappush(heap, (d, next(counter), child, False))
        return out

    # -- updates ---------------------------------------------------------------
    def insert(self, point: Sequence[float], value: object | None = None) -> None:
        self._require_built()
        p = np.asarray(point, dtype=np.float64)
        if self.dims == 0:
            self.dims = p.size
            self._extent = 1.0
        if self._replace_if_present(self._root, p, value):
            return
        split = self._insert_into(self._root, p, value)
        if split is not None:
            new_root = _RNode(leaf=False)
            new_root.entries = [self._root, split]
            new_root.recompute_mbr()
            self._root = new_root
        self._size += 1

    def _replace_if_present(self, node: _RNode, p: np.ndarray, value: object) -> bool:
        """Overwrite the value of an existing exact point, if any.

        Fanout-bounded like :meth:`_point_search`: at most
        ``max_entries`` entries per visited node.
        """
        if node.mbr_lo is None:
            return False
        if np.any(p < node.mbr_lo) or np.any(p > node.mbr_hi):
            return False
        if node.leaf:
            for i, (existing, _) in enumerate(node.entries):
                if np.array_equal(existing, p):
                    node.entries[i] = (existing, value)
                    return True
            return False
        return any(self._replace_if_present(child, p, value) for child in node.entries)

    def _insert_into(self, node: _RNode, p: np.ndarray, value: object) -> _RNode | None:
        node.extend_mbr(p, p)
        if node.leaf:
            node.entries.append((p, value))
            if len(node.entries) > self.max_entries:
                return self._split_leaf(node)
            return None
        # Guttman ChooseLeaf: child needing least enlargement.
        best = min(node.entries, key=lambda c: (_enlargement(c, p), float(np.prod(c.mbr_hi - c.mbr_lo))))
        split = self._insert_into(best, p, value)
        if split is not None:
            node.entries.append(split)
            if len(node.entries) > self.max_entries:
                return self._split_internal(node)
        return None

    def _split_leaf(self, node: _RNode) -> _RNode:
        """Quadratic split of an overfull leaf; returns the new sibling.

        Fanout-bounded: redistributes one node's at most
        ``max_entries + 1`` entries between two leaves.
        """
        entries = node.entries
        seed_a, seed_b = self._pick_seeds([p for p, _ in entries])
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rest = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        for entry in rest:
            if len(group_a) <= len(group_b):
                group_a.append(entry)
            else:
                group_b.append(entry)
        node.entries = group_a
        node.recompute_mbr()
        sibling = _RNode(leaf=True)
        sibling.entries = group_b
        sibling.recompute_mbr()
        return sibling

    def _split_internal(self, node: _RNode) -> _RNode:
        """Fanout-bounded quadratic split, like :meth:`_split_leaf`."""
        entries = node.entries
        centres = [0.5 * (c.mbr_lo + c.mbr_hi) for c in entries]
        seed_a, seed_b = self._pick_seeds(centres)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rest = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        for entry in rest:
            if len(group_a) <= len(group_b):
                group_a.append(entry)
            else:
                group_b.append(entry)
        node.entries = group_a
        node.recompute_mbr()
        sibling = _RNode(leaf=False)
        sibling.entries = group_b
        sibling.recompute_mbr()
        return sibling

    @staticmethod
    def _pick_seeds(points: list[np.ndarray]) -> tuple[int, int]:
        """Pick the two most separated entries along any dimension."""
        arr = np.array(points)
        dim = int(np.argmax(arr.max(axis=0) - arr.min(axis=0)))
        return int(np.argmin(arr[:, dim])), int(np.argmax(arr[:, dim]))

    def delete(self, point: Sequence[float]) -> bool:
        """Remove an exact point; the tree is not rebalanced."""
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        return self._delete_from(self._root, q)

    def _delete_from(self, node: _RNode, q: np.ndarray) -> bool:
        if node.mbr_lo is None:
            return False
        if np.any(q < node.mbr_lo) or np.any(q > node.mbr_hi):
            return False
        if node.leaf:
            for i, (p, _) in enumerate(node.entries):
                if np.array_equal(p, q):
                    del node.entries[i]
                    node.recompute_mbr()
                    self._size -= 1
                    return True
            return False
        for child in node.entries:
            if self._delete_from(child, q):
                node.entries = [c for c in node.entries if c.entries]
                node.recompute_mbr()
                return True
        return False

    def __len__(self) -> int:
        return self._size
