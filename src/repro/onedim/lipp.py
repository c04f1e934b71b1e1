"""LIPP — Wu et al., 2021: an updatable learned index with precise positions.

LIPP's key idea: eliminate the last-mile search entirely.  Every node is
an array of slots addressed *exactly* by its model's prediction; a slot
holds either nothing, one key/value entry, or a child node containing all
keys that collide at that slot.  Queries therefore never search — they
follow at most ``depth`` exact predictions (the survey's *mutable pure /
dynamic layout / in-place* branch, alongside ALEX but without gapped
arrays).

Subtrees whose depth degenerates are rebuilt from their items, mirroring
LIPP's conflict-driven adjustment.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex
from repro.models.linear import LinearModel

__all__ = ["LIPPIndex"]

_EMPTY = 0
_DATA = 1
_CHILD = 2

_MAX_DEPTH = 48


class _LippNode:
    """A LIPP node: model + slot arrays (tag, key, payload).

    ``boundaries`` is the exact-routing fallback for pathological key
    clusters (gaps narrower than linear-model precision): when set, the
    slot of a key is ``searchsorted(boundaries, key, side='right')``.
    """

    __slots__ = ("model", "tags", "keys", "payloads", "count", "boundaries")

    def __init__(self, capacity: int) -> None:
        self.model = LinearModel()
        self.tags = np.zeros(capacity, dtype=np.int8)
        self.keys = np.zeros(capacity)
        self.payloads: list[object] = [None] * capacity
        self.count = 0  # number of keys stored in this subtree
        self.boundaries: np.ndarray | None = None

    @property
    def capacity(self) -> int:
        return int(self.tags.size)


class LIPPIndex(MutableOneDimIndex):
    """LIPP: kernelised tree with exact model-predicted positions.

    Args:
        gap_factor: slots allocated per key at build time (>= 1.5); more
            gaps mean fewer collisions and shallower trees.
    """

    name = "lipp"

    def __init__(self, gap_factor: float = 2.0) -> None:
        super().__init__()
        if gap_factor < 1.5:
            raise ValueError("gap_factor must be >= 1.5")
        self.gap_factor = gap_factor
        self._root: _LippNode | None = None
        self._size = 0

    # -- construction -----------------------------------------------------
    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "LIPPIndex":
        arr, vals = self._prepare(keys, values)
        self._size = int(arr.size)
        self._built = True
        self._root = self._build_node(arr, vals)
        self._refresh_size()
        return self

    def _build_node(self, arr: np.ndarray, vals: list[object]) -> _LippNode:
        """Build one gapped LIPP node from ``arr``.

        Capacity-bounded on the hot path: insert-time conflict rebuilds
        pass one slot's group, so the grouping loop is O(1) per insert;
        only the initial bulk build sees the full array.
        """
        n = arr.size
        capacity = max(8, int(np.ceil(n * self.gap_factor)))
        node = _LippNode(capacity)
        node.count = n
        if n == 0:
            return node
        if float(arr[0]) == float(arr[-1]):
            # All keys equal: a single entry with overwrite semantics.
            node.model = LinearModel(slope=0.0, intercept=0.0)
            node.tags[0] = _DATA
            node.keys[0] = arr[0]
            node.payloads[0] = vals[-1]
            node.count = 1
            return node
        positions = (np.arange(n, dtype=np.float64) + 0.5) / n * capacity
        node.model = LinearModel.fit(arr, positions)
        preds = node.model.predict_array(arr)
        if node.model.slope <= 0 or not np.all(np.isfinite(preds)):
            # Key gaps too narrow for a finite linear model: route by
            # exact unique-key rank instead (one slot per distinct key).
            unique = np.unique(arr)
            node.tags = np.zeros(unique.size, dtype=np.int8)
            node.keys = np.zeros(unique.size)
            node.payloads = [None] * unique.size
            node.boundaries = unique[1:]
            slots = np.searchsorted(node.boundaries, arr, side="right")
        else:
            slots = np.clip(preds.astype(int), 0, capacity - 1)
        # Group keys by slot; singleton groups become DATA, larger groups
        # become child nodes built recursively.
        start = 0
        while start < n:
            end = start + 1
            while end < n and slots[end] == slots[start]:
                end += 1
            s = int(slots[start])
            if end - start == 1:
                node.tags[s] = _DATA
                node.keys[s] = arr[start]
                node.payloads[s] = vals[start]
            else:
                group_keys = arr[start:end]
                if float(group_keys[0]) == float(group_keys[-1]):
                    # All duplicates: keep the last value (overwrite semantics).
                    node.tags[s] = _DATA
                    node.keys[s] = group_keys[0]
                    node.payloads[s] = vals[end - 1]
                    node.count -= (end - start - 1)
                else:
                    node.tags[s] = _CHILD
                    node.payloads[s] = self._build_node(group_keys.copy(), vals[start:end])
            start = end
        return node

    def _refresh_size(self) -> None:
        total = 0
        nodes = 0
        stack = [self._root] if self._root else []
        while stack:
            node = stack.pop()
            nodes += 1
            total += node.capacity * 17 + 24
            for s in range(node.capacity):
                if node.tags[s] == _CHILD:
                    stack.append(node.payloads[s])
        self.stats.size_bytes = total
        self.stats.extra["nodes"] = nodes

    # -- slot addressing -----------------------------------------------------
    @staticmethod
    def _slot(node: _LippNode, key: float) -> int:
        if node.boundaries is not None:
            return int(np.searchsorted(node.boundaries, key, side="right"))
        raw = node.model.predict(key)
        if not np.isfinite(raw):
            # +-inf probes (open-ended scans): saturate the slot.
            return node.capacity - 1 if raw > 0 else 0
        pred = int(raw)
        if pred < 0:
            return 0
        if pred >= node.capacity:
            return node.capacity - 1
        return pred

    # -- reads ------------------------------------------------------------------
    def lookup(self, key: float) -> object | None:
        """Level-bounded descent: each model hop drops one level of the
        precise-placement tree, whose depth conflict rebuilds keep
        logarithmic."""
        self._require_built()
        node = self._root
        key = float(key)
        while node is not None:
            self.stats.nodes_visited += 1
            self.stats.model_predictions += 1
            s = self._slot(node, key)
            tag = node.tags[s]
            if tag == _EMPTY:
                return None
            if tag == _DATA:
                self.stats.comparisons += 1
                if node.keys[s] == key:
                    self.stats.keys_scanned += 1
                    return node.payloads[s]
                return None
            node = node.payloads[s]
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if high < low or self._root is None:
            return []
        out: list[tuple[float, object]] = []
        self._scan(self._root, float(low), float(high), out)
        return out

    def _scan(self, node: _LippNode, low: float, high: float, out: list) -> None:
        # Monotone model => keys in slot range [slot(low), slot(high)].
        s_lo = self._slot(node, low)
        s_hi = self._slot(node, high)
        if node.model.slope <= 0:
            s_lo, s_hi = 0, node.capacity - 1
        self.stats.nodes_visited += 1
        for s in range(s_lo, s_hi + 1):
            tag = node.tags[s]
            if tag == _DATA:
                k = float(node.keys[s])
                if low <= k <= high:
                    out.append((k, node.payloads[s]))
                    self.stats.keys_scanned += 1
            elif tag == _CHILD:
                self._scan(node.payloads[s], low, high, out)

    def items(self) -> Iterator[tuple[float, object]]:
        """Yield all entries in key order (in-order slot traversal)."""
        def walk(node: _LippNode):
            for s in range(node.capacity):
                tag = node.tags[s]
                if tag == _DATA:
                    yield float(node.keys[s]), node.payloads[s]
                elif tag == _CHILD:
                    yield from walk(node.payloads[s])

        if self._root is not None:
            yield from walk(self._root)

    # -- writes --------------------------------------------------------------------
    def insert(self, key: float, value: object | None = None) -> None:
        self._require_built()
        key = float(key)
        if self._root is None:
            self._root = self._build_node(np.array([key]), [value])
            self._size = 1
            return
        if self._insert_into(self._root, key, value, depth=0):
            self._size += 1

    def _insert_into(self, node: _LippNode, key: float, value: object, depth: int) -> bool:
        """Level-bounded descent to the conflict slot (see :meth:`lookup`);
        subtree rebuilds along the path are amortized by the ratio test."""
        path: list[_LippNode] = []
        while True:
            path.append(node)
            s = self._slot(node, key)
            tag = node.tags[s]
            if tag == _EMPTY:
                node.tags[s] = _DATA
                node.keys[s] = key
                node.payloads[s] = value
                for p in path:
                    p.count += 1
                return True
            if tag == _DATA:
                if node.keys[s] == key:
                    node.payloads[s] = value
                    return False
                # Collision: push both entries into a fresh child node.
                old_key = float(node.keys[s])
                old_val = node.payloads[s]
                pair = sorted([(old_key, old_val), (key, value)])
                child = self._build_node(
                    np.array([pair[0][0], pair[1][0]]), [pair[0][1], pair[1][1]]
                )
                node.tags[s] = _CHILD
                node.keys[s] = 0.0
                node.payloads[s] = child
                for p in path:
                    p.count += 1
                if depth + len(path) > _MAX_DEPTH:
                    self._rebuild_subtree(path[0])
                return True
            node = node.payloads[s]
            depth += 1

    def _rebuild_subtree(self, node: _LippNode) -> None:
        """Flatten a degenerate subtree and rebuild it balanced."""
        items = []

        def walk(current: _LippNode) -> None:
            for s in range(current.capacity):
                tag = current.tags[s]
                if tag == _DATA:
                    items.append((float(current.keys[s]), current.payloads[s]))
                elif tag == _CHILD:
                    walk(current.payloads[s])

        walk(node)
        items.sort(key=lambda kv: kv[0])
        rebuilt = self._build_node(
            np.array([k for k, _ in items]), [v for _, v in items]
        )
        node.model = rebuilt.model
        node.tags = rebuilt.tags
        node.keys = rebuilt.keys
        node.payloads = rebuilt.payloads
        node.count = rebuilt.count
        self.stats.extra["rebuilds"] = self.stats.extra.get("rebuilds", 0) + 1

    def delete(self, key: float) -> bool:
        self._require_built()
        key = float(key)
        node = self._root
        path: list[tuple[_LippNode, int]] = []
        while node is not None:
            s = self._slot(node, key)
            tag = node.tags[s]
            if tag == _EMPTY:
                return False
            if tag == _DATA:
                if node.keys[s] != key:
                    return False
                node.tags[s] = _EMPTY
                node.payloads[s] = None
                for parent, _ in path:
                    parent.count -= 1
                node.count -= 1
                self._size -= 1
                return True
            path.append((node, s))
            node = node.payloads[s]
        return False

    def __len__(self) -> int:
        return self._size
