"""IFB-tree — interpolation-friendly B+-tree (Hadian & Heinis, 2019).

A *mutable hybrid* learned index: the structure is a plain B+-tree, but
within every node the search interpolates between the node's first and
last keys instead of binary searching, falling back to a short linear
scan for correction.  On well-behaved key distributions this turns the
per-node O(log fanout) into O(1)-ish.
"""

from __future__ import annotations

from repro.baselines.btree import BPlusTreeIndex, _Node

__all__ = ["InterpolationBTreeIndex"]


class InterpolationBTreeIndex(BPlusTreeIndex):
    """B+-tree with per-node interpolation search.

    Inherits all structure maintenance (bulk load, splits, deletes) from
    :class:`BPlusTreeIndex` and overrides only the intra-node search.
    """

    name = "ifb-tree"

    def __init__(self, fanout: int = 64) -> None:
        super().__init__(fanout=fanout)

    def _interpolate(self, keys: list[float], key: float) -> int:
        """Lower-bound index of ``key`` in a node's sorted key list.

        Interpolate an initial guess, then repair with a linear scan; the
        scan length is recorded as correction effort.  Error-bounded in
        expectation: the repair walk covers the interpolation error of
        one fanout-bounded node key list, not the data array.
        """
        n = len(keys)
        if n == 0:
            return 0
        lo_key = keys[0]
        hi_key = keys[-1]
        if key <= lo_key:
            # Still need leftmost >= key semantics: if key == lo_key, 0 is
            # correct; if key < lo_key, 0 is correct too.
            self.stats.comparisons += 1
            return 0
        if not key <= hi_key:  # NaN orders after every key
            self.stats.comparisons += 1
            return n
        span = hi_key - lo_key
        guess = int((key - lo_key) / span * (n - 1)) if span > 0 else 0
        guess = min(max(guess, 0), n - 1)
        # Repair scan: move left while previous keys are >= key, then
        # right while the current key is < key.
        while guess > 0 and keys[guess - 1] >= key:
            guess -= 1
            self.stats.corrections += 1
        while guess < n and keys[guess] < key:
            guess += 1
            self.stats.corrections += 1
        return guess

    def _find_leaf(self, key: float, leftmost: bool = False) -> _Node:
        node = self._root
        while not node.leaf:
            self.stats.nodes_visited += 1
            idx = (self._interpolate if leftmost else self._interpolate_right)(node.keys, key)
            node = node.children[idx]
        self.stats.nodes_visited += 1
        return node

    def _interpolate_right(self, keys: list[float], key: float) -> int:
        """Upper-bound (bisect_right) via interpolation, for routing.

        Duplicate-bounded: the repair walk crosses only the equal-key
        run inside one fanout-limited node.
        """
        idx = self._interpolate(keys, key)
        n = len(keys)
        while idx < n and keys[idx] == key:
            idx += 1
            self.stats.corrections += 1
        return idx

    def lookup(self, key: float) -> object | None:
        self._require_built()
        key = float(key)
        leaf = self._find_leaf(key)
        idx = self._interpolate(leaf.keys, key)
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
        idx = self._interpolate(leaf.keys, float(low))
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
