"""In-memory B+-tree.

The B-tree is the traditional index the original learned-index paper set
out to replace, and the hybrid branch of the taxonomy keeps it as a
component (Hybrid-RMI leaves, IFB-tree nodes).  This implementation is a
classic order-``fanout`` B+-tree: internal nodes route, leaves hold the
``(key, value)`` pairs and are chained for range scans.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex
from repro.core.state import IndexState, export_index_state

__all__ = ["BPlusTreeIndex"]


class _Node:
    """A B+-tree node; ``leaf`` nodes carry values and a next pointer."""

    __slots__ = ("keys", "children", "values", "leaf", "next")

    def __init__(self, leaf: bool) -> None:
        self.keys: list[float] = []
        self.children: list[_Node] = []
        self.values: list[object] = []
        self.leaf = leaf
        self.next: _Node | None = None


class BPlusTreeIndex(MutableOneDimIndex):
    """A B+-tree with configurable fanout (default 64).

    Args:
        fanout: maximum number of keys per node; nodes split at fanout
            and merge-by-borrowing is replaced with lazy deletion (keys
            are removed from leaves; underflow is tolerated), which keeps
            the structure simple while preserving search correctness.
    """

    name = "b+tree"

    def __init__(self, fanout: int = 64) -> None:
        super().__init__()
        if fanout < 4:
            raise ValueError("fanout must be >= 4")
        self.fanout = fanout
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1

    # -- construction ----------------------------------------------------
    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "BPlusTreeIndex":
        """Bulk-load bottom-up from sorted keys."""
        arr, vals = self._prepare(keys, values)
        self._size = int(arr.size)
        self._built = True
        self._load_sorted(arr, vals)
        return self

    def _load_sorted(self, arr: np.ndarray, vals: list[object]) -> None:
        """Bottom-up bulk load of already-sorted pairs (iterative)."""
        if arr.size == 0:
            self._root = _Node(leaf=True)
            self._height = 1
            return

        # Build leaves at ~2/3 fill to leave insert headroom.
        per_leaf = max(2, (2 * self.fanout) // 3)
        leaves: list[_Node] = []
        for start in range(0, arr.size, per_leaf):
            leaf = _Node(leaf=True)
            leaf.keys = [float(k) for k in arr[start:start + per_leaf]]
            leaf.values = vals[start:start + per_leaf]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)

        level: list[_Node] = leaves
        # Track the minimum leaf key under each node: internal separators
        # must be subtree minima, not the child's own first separator.
        level_mins: list[float] = [leaf.keys[0] for leaf in leaves]
        height = 1
        while len(level) > 1:
            parents: list[_Node] = []
            parent_mins: list[float] = []
            per_node = max(2, (2 * self.fanout) // 3)
            for start in range(0, len(level), per_node):
                group = level[start:start + per_node]
                mins = level_mins[start:start + per_node]
                parent = _Node(leaf=False)
                parent.children = group
                parent.keys = mins[1:]
                parents.append(parent)
                parent_mins.append(mins[0])
            level = parents
            level_mins = parent_mins
            height += 1
        self._root = level[0]
        self._height = height
        self._update_size_estimate()

    # -- state export/restore ---------------------------------------------
    def export_state(self) -> IndexState:
        """Flatten the leaf chain into (keys, values) columns.

        The generic exporter would pickle the node graph, whose leaf
        ``next`` chain recurses once per leaf and overflows pickle's
        recursion limit beyond a few thousand keys; flattening keeps
        the export iterative and puts the key column into a shareable
        array.
        """
        self._require_built()
        keys: list[float] = []
        values: list[object] = []
        for key, value in self.items():
            keys.append(key)
            values.append(value)
        root = self._root
        try:
            self._root = _Node(leaf=True)  # detach the node graph
            self._chain_flat = (np.asarray(keys, dtype=np.float64), values)
            return export_index_state(self)
        finally:
            del self._chain_flat
            self._root = root

    @classmethod
    def from_state(cls, state: IndexState) -> "BPlusTreeIndex":
        """Rebuild the node graph bottom-up from the flattened columns."""
        instance = super().from_state(state)
        assert isinstance(instance, BPlusTreeIndex)
        keys_arr, values = instance.__dict__.pop("_chain_flat")
        instance._load_sorted(np.asarray(keys_arr, dtype=np.float64),
                              list(values))
        return instance

    def _update_size_estimate(self) -> None:
        nodes = 0
        keys = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            keys += len(node.keys)
            if not node.leaf:
                stack.extend(node.children)
        self.stats.size_bytes = nodes * 64 + keys * 16
        self.stats.extra["height"] = self._height
        self.stats.extra["nodes"] = nodes

    # -- search -----------------------------------------------------------
    def _find_leaf(self, key: float, leftmost: bool = False) -> _Node:
        """The leaf ``key`` routes to; ``leftmost`` picks the first leaf
        that can hold it, where a run of equal keys spanning several
        leaves starts (a range scan's start)."""
        node = self._root
        while not node.leaf:
            self.stats.nodes_visited += 1
            idx = (bisect.bisect_left if leftmost else bisect.bisect_right)(node.keys, key)
            self.stats.comparisons += max(1, len(node.keys).bit_length())
            node = node.children[idx]
        self.stats.nodes_visited += 1
        return node

    def lookup(self, key: float) -> object | None:
        self._require_built()
        key = float(key)
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        self.stats.comparisons += max(1, len(leaf.keys).bit_length())
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            self.stats.keys_scanned += 1
            return leaf.values[idx]
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high:
            return []
        leaf: _Node | None = self._find_leaf(float(low), leftmost=True)
        out: list[tuple[float, object]] = []
        idx = bisect.bisect_left(leaf.keys, float(low))
        while leaf is not None:
            while idx < len(leaf.keys):
                k = leaf.keys[idx]
                if k > high:
                    return out
                out.append((k, leaf.values[idx]))
                self.stats.keys_scanned += 1
                idx += 1
            leaf = leaf.next
            idx = 0
            if leaf is not None:
                self.stats.nodes_visited += 1
        return out

    # -- updates ----------------------------------------------------------
    def _insert(self, key: float, value: object | None) -> None:
        split = self._insert_into(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Node(leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1

    def _insert_into(self, node: _Node, key: float, value: object) -> tuple[float, _Node] | None:
        if node.leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            if len(node.keys) > self.fanout:
                return self._split_leaf(node)
            return None
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.keys) > self.fanout:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node) -> tuple[float, _Node]:
        mid = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Node) -> tuple[float, _Node]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep, right

    def _delete(self, key: float) -> bool:
        """Lazy delete: remove from the leaf, tolerate underflow."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            del leaf.keys[idx]
            del leaf.values[idx]
            self._size -= 1
            return True
        return False

    # -- iteration ----------------------------------------------------------
    def items(self) -> Iterator[tuple[float, object]]:
        """Yield all pairs in key order via the leaf chain."""
        node = self._root
        while not node.leaf:
            node = node.children[0]
        leaf: _Node | None = node
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    @property
    def height(self) -> int:
        """Tree height (1 = a single leaf)."""
        return self._height

    def __len__(self) -> int:
        return self._size
