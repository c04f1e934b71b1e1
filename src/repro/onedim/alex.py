"""ALEX — Ding et al., 2020: an updatable adaptive learned index.

ALEX's signature ideas, all reproduced here:

* **Gapped arrays**: data nodes leave gaps between elements so most
  inserts move O(1) elements.  Gap slots duplicate their left occupied
  neighbour's key, so plain (exponential) search still works over the
  array.
* **Model-based inserts/layout**: when a node is (re)built, each key is
  placed at the slot its linear model predicts, making later predictions
  nearly exact.
* **Adaptive structure**: data nodes expand in place while small, and
  convert into a model-routed subtree when they exceed the node size
  limit (dynamic data layout, in-place insert strategy in the survey's
  taxonomy).

Inner nodes route with a linear model over child slots; leaves form a
doubly linked chain for range scans.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex
from repro.core.state import IndexState, export_index_state
from repro.models.linear import LinearModel

__all__ = ["ALEXIndex"]


class _DataNode:
    """Gapped-array leaf with a linear model over its own slots."""

    __slots__ = ("keys", "values", "occupied", "model", "count", "prev", "next")

    def __init__(self, capacity: int) -> None:
        self.keys = np.full(capacity, -np.inf)
        self.values: list[object] = [None] * capacity
        self.occupied = np.zeros(capacity, dtype=bool)
        self.model = LinearModel()
        self.count = 0
        self.prev: _DataNode | None = None
        self.next: _DataNode | None = None

    @property
    def capacity(self) -> int:
        return int(self.keys.size)


class _InnerNode:
    """Model-routed inner node: one child per slot.

    When the data defeats linear routing (near-duplicate key clusters),
    ``boundaries`` switches the node to exact rank-split routing.
    """

    __slots__ = ("model", "children", "boundaries")

    def __init__(self, model: LinearModel, children: list,
                 boundaries: np.ndarray | None = None) -> None:
        self.model = model
        self.children = children
        self.boundaries = boundaries

    def route(self, key: float) -> int:
        if self.boundaries is not None:
            return int(np.searchsorted(self.boundaries, key, side="right"))
        raw = self.model.predict(key)
        if not np.isfinite(raw):
            return 0
        slot = int(raw)
        if slot < 0:
            return 0
        if slot >= len(self.children):
            return len(self.children) - 1
        return slot


class ALEXIndex(MutableOneDimIndex):
    """ALEX: adaptive learned index with gapped arrays.

    Args:
        max_leaf_keys: keys per data node before it becomes a subtree.
        density: target fill factor of gapped arrays (0 < density < 1).
    """

    name = "alex"

    def __init__(self, max_leaf_keys: int = 512, density: float = 0.7) -> None:
        super().__init__()
        if max_leaf_keys < 8:
            raise ValueError("max_leaf_keys must be >= 8")
        if not 0.1 < density < 0.95:
            raise ValueError("density must be in (0.1, 0.95)")
        self.max_leaf_keys = max_leaf_keys
        self.density = density
        self._root: _InnerNode | _DataNode | None = None
        self._size = 0
        self._head: _DataNode | None = None  # leftmost leaf

    # -- construction -------------------------------------------------------
    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "ALEXIndex":
        arr, vals = self._prepare(keys, values)
        self._size = int(arr.size)
        self._built = True
        self._root = self._build_subtree(arr, vals)
        self._link_leaves()
        self._refresh_size()
        return self

    def _build_subtree(self, arr: np.ndarray, vals: list[object]):
        if arr.size <= self.max_leaf_keys:
            return self._build_data_node(arr, vals)
        if float(arr[0]) == float(arr[-1]):
            # All-duplicate oversized group: splitting cannot help, so
            # keep one (large) data node rather than recurse forever.
            return self._build_data_node(arr, vals)
        return self._build_inner(arr, vals)

    def _build_inner(self, arr: np.ndarray, vals: list[object]) -> "_InnerNode":
        n = arr.size
        # Inner node: pick a slot count targeting half-full leaves.
        target = max(self.max_leaf_keys // 2, 1)
        slots = int(2 ** np.ceil(np.log2(max(n / target, 2))))
        slots = min(slots, 4096)
        positions = np.arange(n, dtype=np.float64) / n * slots
        model = LinearModel.fit(arr, positions)
        pred = np.clip(model.predict_array(arr).astype(int), 0, slots - 1)
        # Enforce monotone routing (slope >= 0 gives it already, but be safe).
        pred = np.maximum.accumulate(pred)
        if pred[0] == pred[-1]:
            # Degenerate model (near-duplicate key clusters): the linear
            # split would put everything into one child and recurse
            # forever.  Fall back to exact rank-based partitioning, with
            # equal keys pinned to one group.
            pred = (np.arange(n) * slots // n).astype(np.int64)
            for i in range(1, n):
                if arr[i] == arr[i - 1] and pred[i] != pred[i - 1]:
                    pred[i] = pred[i - 1]
            boundaries = np.empty(slots - 1)
            for s in range(1, slots):
                j = int(np.searchsorted(pred, s, side="left"))
                boundaries[s - 1] = arr[j] if j < n else np.inf
            children = []
            start = 0
            for s in range(slots):
                end = int(np.searchsorted(pred, s, side="right"))
                children.append(self._build_subtree(arr[start:end], vals[start:end]))
                start = end
            return _InnerNode(model, children, boundaries=boundaries)
        children = []
        start = 0
        for s in range(slots):
            end = int(np.searchsorted(pred, s, side="right"))
            children.append(self._build_subtree(arr[start:end], vals[start:end]))
            start = end
        return _InnerNode(model, children)

    def _build_data_node(self, arr: np.ndarray, vals: list[object]) -> _DataNode:
        """Model-based placement of ``arr`` into one gapped data node.

        Capacity-bounded on the hot path: insert-time splits call this
        with one node's keys (at most ``max_node_size`` of them), so the
        placement loops are O(1) per operation; only the initial bulk
        build sees the full array.
        """
        n = arr.size
        capacity = max(8, int(np.ceil(n / self.density)) + 1)
        node = _DataNode(capacity)
        node.count = n
        if n == 0:
            return node
        # Model-based placement: put each key where the model predicts.
        model = LinearModel.fit(arr, np.arange(n, dtype=np.float64) / max(n - 1, 1) * (capacity - 1))
        node.model = model
        preds = model.predict_array(arr)
        if not np.all(np.isfinite(preds)):
            preds = np.zeros(n)
        slots = np.clip(preds.astype(int), 0, capacity - 1)
        last = -1
        placed: list[int] = []
        overflow = False
        for i in range(n):
            s = max(int(slots[i]), last + 1)
            if s >= capacity:
                overflow = True
                break
            placed.append(s)
            last = s
        if overflow or len(placed) != n:
            placed = list(np.linspace(0, capacity - 1, n).astype(int))
            # linspace can repeat for tiny capacities; force strict increase.
            for i in range(1, n):
                if placed[i] <= placed[i - 1]:
                    placed[i] = placed[i - 1] + 1
        for i, s in enumerate(placed):
            node.keys[s] = arr[i]
            node.values[s] = vals[i]
            node.occupied[s] = True
        self._fill_gaps(node)
        return node

    @staticmethod
    def _fill_gaps(node: _DataNode) -> None:
        """Gap slots duplicate the nearest occupied key to their left."""
        current = -np.inf
        for s in range(node.capacity):
            if node.occupied[s]:
                current = node.keys[s]
            else:
                node.keys[s] = current
                node.values[s] = None

    def _link_leaves(self) -> None:
        leaves: list[_DataNode] = []

        def collect(node) -> None:
            if isinstance(node, _DataNode):
                leaves.append(node)
            else:
                for child in node.children:
                    collect(child)

        if self._root is not None:
            collect(self._root)
        for i, leaf in enumerate(leaves):
            leaf.prev = leaves[i - 1] if i > 0 else None
            leaf.next = leaves[i + 1] if i + 1 < len(leaves) else None
        self._head = leaves[0] if leaves else None

    def _refresh_size(self) -> None:
        total = 0
        nodes = 0

        def visit(node) -> None:
            nonlocal total, nodes
            nodes += 1
            if isinstance(node, _DataNode):
                total += node.capacity * 17 + 24
            else:
                total += len(node.children) * 8 + 24
                for child in node.children:
                    visit(child)

        if self._root is not None:
            visit(self._root)
        self.stats.size_bytes = total
        self.stats.extra["nodes"] = nodes

    # -- state export/restore ---------------------------------------------------
    def export_state(self) -> IndexState:
        """Sever the doubly-linked leaf chain around the generic export.

        Pickling the ``prev``/``next`` chain recurses once per data
        node and overflows pickle's recursion limit on large trees.
        The leaves stay reachable through the inner-node tree (pickle
        depth = tree height), and :meth:`_link_leaves` reconstructs
        the chain on restore.
        """
        self._require_built()
        head = self._head
        leaves: list[_DataNode] = []
        node = head
        while node is not None:
            leaves.append(node)
            node = node.next
        try:
            for leaf in leaves:
                leaf.prev = None
                leaf.next = None
            self._head = None
            return export_index_state(self)
        finally:
            self._head = head
            for i, leaf in enumerate(leaves):
                leaf.prev = leaves[i - 1] if i > 0 else None
                leaf.next = leaves[i + 1] if i + 1 < len(leaves) else None

    @classmethod
    def from_state(cls, state: IndexState) -> "ALEXIndex":
        """Relink the leaf chain after the generic restore."""
        instance = super().from_state(state)
        assert isinstance(instance, ALEXIndex)
        instance._link_leaves()
        return instance

    # -- navigation ------------------------------------------------------------
    def _find_leaf(self, key: float) -> _DataNode:
        node = self._root
        while isinstance(node, _InnerNode):
            self.stats.nodes_visited += 1
            self.stats.model_predictions += 1
            node = node.children[node.route(key)]
        self.stats.nodes_visited += 1
        return node

    def _slot_of(self, node: _DataNode, key: float) -> int:
        """Leftmost slot with ``keys[slot] >= key`` via model + gallop."""
        self.stats.model_predictions += 1
        cap = node.capacity
        raw = node.model.predict(key)
        pos = int(np.clip(round(raw), 0, cap - 1)) if np.isfinite(raw) else 0
        keys = node.keys
        if keys[pos] < key:
            step = 1
            lo = pos + 1
            while pos + step < cap and keys[pos + step] < key:
                lo = pos + step + 1
                step *= 2
                self.stats.comparisons += 1
            hi = min(pos + step + 1, cap)
        else:
            step = 1
            hi = pos
            while pos - step >= 0 and keys[pos - step] >= key:
                hi = pos - step
                step *= 2
                self.stats.comparisons += 1
            lo = max(pos - step, 0)
        while lo < hi:
            mid = (lo + hi) // 2
            self.stats.comparisons += 1
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- reads --------------------------------------------------------------------
    def lookup(self, key: float) -> object | None:
        self._require_built()
        if self._root is None or self._size == 0:
            return None
        key = float(key)
        node = self._find_leaf(key)
        slot = self._slot_of(node, key)
        if slot < node.capacity and node.keys[slot] == key and node.occupied[slot]:
            self.stats.keys_scanned += 1
            return node.values[slot]
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high or self._root is None:
            return []
        low = float(low)
        high = float(high)
        node: _DataNode | None = self._find_leaf(low)
        slot = self._slot_of(node, low)
        out: list[tuple[float, object]] = []
        while node is not None:
            while slot < node.capacity:
                if node.occupied[slot]:
                    k = float(node.keys[slot])
                    if k > high:
                        return out
                    if k >= low:
                        out.append((k, node.values[slot]))
                        self.stats.keys_scanned += 1
                slot += 1
            node = node.next
            slot = 0
            if node is not None:
                self.stats.nodes_visited += 1
        return out

    # -- writes ---------------------------------------------------------------------
    def _insert(self, key: float, value: object | None) -> None:
        if self._root is None:
            self._root = self._build_data_node(np.array([key]), [value])
            self._head = self._root
            self._size = 1
            return
        node = self._find_leaf(key)
        if self._insert_into_leaf(node, key, value):
            self._size += 1

    def _insert_into_leaf(self, node: _DataNode, key: float, value: object) -> bool:
        slot = self._slot_of(node, key)
        if slot < node.capacity and node.keys[slot] == key and node.occupied[slot]:
            node.values[slot] = value
            return False
        if node.count + 1 > node.capacity * 0.95 or node.count + 1 > self.max_leaf_keys:
            self._grow_leaf(node)
            # The leaf may have been replaced by a subtree: re-descend.
            target = self._find_leaf(key)
            return self._insert_into_leaf(target, key, value)
        self._gapped_insert(node, slot, key, value)
        node.count += 1
        return True

    def _gapped_insert(self, node: _DataNode, slot: int, key: float, value: object) -> None:
        """Place ``key`` at ``slot``, shifting toward the nearest gap.

        Occupancy-bounded: callers enforce the 0.95 density cap before
        descending here, so gaps stay dense and the walk is short in
        expectation, capped by one node's capacity.
        """
        occupied = node.occupied
        cap = node.capacity
        # Nearest gap to the right of (and including) slot.
        gap_right = slot
        while gap_right < cap and occupied[gap_right]:
            gap_right += 1
        if gap_right < cap:
            if gap_right > slot:
                node.keys[slot + 1:gap_right + 1] = node.keys[slot:gap_right]
                node.values[slot + 1:gap_right + 1] = node.values[slot:gap_right]
                occupied[slot + 1:gap_right + 1] = occupied[slot:gap_right]
            node.keys[slot] = key
            node.values[slot] = value
            occupied[slot] = True
            return
        # No gap to the right: find one to the left (must exist, caller
        # checked the density bound).
        gap_left = slot - 1
        while gap_left >= 0 and occupied[gap_left]:
            gap_left -= 1
        assert gap_left >= 0, "gapped insert called on a full node"
        insert_at = slot - 1
        node.keys[gap_left:insert_at] = node.keys[gap_left + 1:insert_at + 1]
        node.values[gap_left:insert_at] = node.values[gap_left + 1:insert_at + 1]
        occupied[gap_left:insert_at] = occupied[gap_left + 1:insert_at + 1]
        node.keys[insert_at] = key
        node.values[insert_at] = value
        occupied[insert_at] = True

    def _leaf_items(self, node: _DataNode) -> tuple[np.ndarray, list[object]]:
        mask = node.occupied
        return node.keys[mask].copy(), [node.values[i] for i in np.nonzero(mask)[0]]

    def _grow_leaf(self, node: _DataNode) -> None:
        """Expand a leaf in place, or convert it to a subtree when too big."""
        keys, values = self._leaf_items(node)
        if keys.size < self.max_leaf_keys:
            replacement: _InnerNode | _DataNode = self._build_data_node(keys, values)
        else:
            replacement = self._build_subtree_from_overflow(keys, values)
        self._replace_node(node, replacement, float(keys[0]) if keys.size else None)

    def _build_subtree_from_overflow(self, keys: np.ndarray, values: list[object]):
        """Split an overflowing leaf into a model-routed subtree.

        Capacity-bounded: called with one leaf's keys (exactly
        ``max_leaf_keys`` of them), so the rebuild is O(1) in n and
        amortized over the inserts that filled the leaf.

        Must produce an inner node even when the key count equals the
        leaf limit, otherwise the leaf would rebuild itself forever.
        """
        return self._build_inner(keys, values)

    def _swap_via_route(self, old: _DataNode, new, key: float) -> bool:
        """Model-guided descent to ``old``'s parent; True on success."""
        node = self._root
        while isinstance(node, _InnerNode):
            idx = node.route(key)
            child = node.children[idx]
            if child is old:
                node.children[idx] = new
                return True
            node = child
        return False

    def _replace_node(self, old: _DataNode, new, route_key: float | None = None) -> None:
        """Swap ``old`` for ``new`` in the routing tree and leaf chain.

        Level-bounded: with a ``route_key`` the parent is found by the
        same model-guided descent as :meth:`_find_leaf`; the exhaustive
        tree scan runs only as a fallback when routing misses.
        """
        if self._root is old:
            self._root = new
        elif route_key is None or not self._swap_via_route(old, new, route_key):
            stack = [self._root]
            done = False
            while stack and not done:
                current = stack.pop()
                if isinstance(current, _InnerNode):
                    for i, child in enumerate(current.children):
                        if child is old:
                            current.children[i] = new
                            done = True
                            break
                        if isinstance(child, _InnerNode):
                            stack.append(child)
        # Splice the replacement's leaves into the chain.
        first, last = self._leaf_span(new)
        prev_leaf, next_leaf = old.prev, old.next
        first.prev = prev_leaf
        if prev_leaf is not None:
            prev_leaf.next = first
        else:
            self._head = first
        last.next = next_leaf
        if next_leaf is not None:
            next_leaf.prev = last

    def _leaf_span(self, node) -> tuple[_DataNode, _DataNode]:
        """(leftmost, rightmost) leaves of a freshly built subtree; also
        links the subtree's internal leaf chain."""
        leaves: list[_DataNode] = []

        def collect(current) -> None:
            if isinstance(current, _DataNode):
                leaves.append(current)
            else:
                for child in current.children:
                    collect(child)

        collect(node)
        for i, leaf in enumerate(leaves):
            leaf.prev = leaves[i - 1] if i > 0 else None
            leaf.next = leaves[i + 1] if i + 1 < len(leaves) else None
        return leaves[0], leaves[-1]

    def _delete(self, key: float) -> bool:
        if self._root is None:
            return False
        node = self._find_leaf(key)
        slot = self._slot_of(node, key)
        if slot >= node.capacity or node.keys[slot] != key or not node.occupied[slot]:
            return False
        node.occupied[slot] = False
        node.values[slot] = None
        # Restore the gap invariant: this slot and any gap-run after it
        # must duplicate the nearest occupied key to the left.
        left_key = -np.inf
        for s in range(slot - 1, -1, -1):
            if node.occupied[s]:
                left_key = node.keys[s]
                break
        s = slot
        while s < node.capacity and not node.occupied[s]:
            node.keys[s] = left_key
            s += 1
        node.count -= 1
        self._size -= 1
        return True

    def __len__(self) -> int:
        return self._size
