"""Hist-Tree — Crotty, 2021 ("Those Who Ignore It Are Doomed to Learn").

A learned-index-shaped structure with no trained models: a hierarchy of
equi-width histograms.  Each node splits its key range into ``bins``
equal-width buckets with cumulative counts; buckets holding more than
``leaf_threshold`` keys get a child histogram.  Lookups descend the bin
hierarchy in O(depth) and finish with a binary search inside the final
bucket's position range.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import OneDimIndex
from repro.onedim._search import lower_bound

__all__ = ["HistTreeIndex"]


class _HistNode:
    __slots__ = ("lo", "hi", "cumulative", "children", "first")

    def __init__(self, lo: float, hi: float, cumulative: np.ndarray, first: int) -> None:
        self.lo = lo
        self.hi = hi
        self.cumulative = cumulative  # len bins+1, offsets relative to `first`
        self.children: dict[int, "_HistNode"] = {}
        self.first = first  # absolute position of this node's first key


class HistTreeIndex(OneDimIndex):
    """Hierarchical equi-width histogram index (immutable, pure).

    Args:
        bins: buckets per node (default 64).
        leaf_threshold: max keys in a bucket before it gets a child node
            (default 32; also the final binary-search window size).
    """

    name = "hist-tree"

    def __init__(self, bins: int = 64, leaf_threshold: int = 32) -> None:
        super().__init__()
        if bins < 2:
            raise ValueError("bins must be >= 2")
        if leaf_threshold < 1:
            raise ValueError("leaf_threshold must be >= 1")
        self.bins = bins
        self.leaf_threshold = leaf_threshold
        self._keys = np.empty(0)
        self._values: list[object] = []
        self._root: _HistNode | None = None
        self._node_count = 0

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "HistTreeIndex":
        self._keys, self._values = self._prepare(keys, values)
        self._built = True
        self._node_count = 0
        if self._keys.size == 0:
            self._root = None
            return self
        lo = float(self._keys[0])
        hi = float(self._keys[-1])
        self._root = self._build_node(lo, hi, 0, self._keys.size, depth=0)
        self.stats.size_bytes = self._node_count * (8 * (self.bins + 1) + 32)
        self.stats.extra["nodes"] = self._node_count
        return self

    def _build_node(self, lo: float, hi: float, first: int, last: int, depth: int) -> _HistNode:
        self._node_count += 1
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, self.bins + 1)
        # Bucket b covers [edges[b], edges[b+1]); the last bucket is closed.
        slice_keys = self._keys[first:last]
        counts = np.searchsorted(slice_keys, edges, side="left")
        counts[-1] = last - first
        node = _HistNode(lo, hi, counts.astype(np.int64), first)
        if depth >= 24:
            return node
        for b in range(self.bins):
            b_first = first + int(counts[b])
            b_last = first + int(counts[b + 1])
            if b_last - b_first > self.leaf_threshold:
                child_lo = float(edges[b])
                child_hi = float(edges[b + 1])
                if self._keys[b_first] == self._keys[b_last - 1]:
                    continue  # all-duplicate bucket cannot be subdivided
                node.children[b] = self._build_node(child_lo, child_hi, b_first, b_last, depth + 1)
        return node

    def _bucket_of(self, node: _HistNode, key: float) -> int:
        width = (node.hi - node.lo) / self.bins
        if width <= 0:
            return 0
        b = int((key - node.lo) / width)
        return min(max(b, 0), self.bins - 1)

    def _locate(self, key: float) -> int:
        """Level-bounded histogram descent to a leaf range, then a
        bounded binary search inside that bucket's span."""
        node = self._root
        assert node is not None
        if key < node.lo:
            return 0
        if not key <= node.hi:  # NaN orders after every key
            return self._keys.size
        while True:
            self.stats.nodes_visited += 1
            b = self._bucket_of(node, key)
            child = node.children.get(b)
            if child is None:
                first = node.first + int(node.cumulative[b])
                last = node.first + int(node.cumulative[b + 1])
                return lower_bound(self._keys, key, first, last, self.stats)
            node = child

    def lookup(self, key: float) -> object | None:
        self._require_built()
        if self._root is None:
            return None
        key = float(key)
        pos = self._locate(key)
        if pos < self._keys.size and self._keys[pos] == key:
            self.stats.keys_scanned += 1
            return self._values[pos]
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high or self._root is None:
            return []
        start = self._locate(float(low))
        out: list[tuple[float, object]] = []
        i = start
        while i < self._keys.size and self._keys[i] <= high:
            out.append((float(self._keys[i]), self._values[i]))
            self.stats.keys_scanned += 1
            i += 1
        return out

    def __len__(self) -> int:
        return int(self._keys.size)
