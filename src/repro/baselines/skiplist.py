"""Probabilistic skip list (Pugh 1990).

The skip list is the traditional structure behind the learned S3 index and
many LSM memtables.  Towers are built with geometric heights from a
deterministic RNG so tests are reproducible.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex
from repro.core.state import IndexState, export_index_state

__all__ = ["SkipListIndex"]

_MAX_LEVEL = 32


class _SkipNode:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: float, value: object, level: int) -> None:
        self.key = key
        self.value = value
        self.forward: list[_SkipNode | None] = [None] * level


class SkipListIndex(MutableOneDimIndex):
    """A skip list with p = 1/2 towers and a deterministic seed."""

    name = "skiplist"

    def __init__(self, seed: int = 42) -> None:
        super().__init__()
        self._rng = np.random.default_rng(seed)
        self._head = _SkipNode(-np.inf, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0

    def _random_level(self) -> int:
        """Level-bounded coin-flip loop: caps at ``_MAX_LEVEL``."""
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < 0.5:
            level += 1
        return level

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "SkipListIndex":
        arr, vals = self._prepare(keys, values)
        self._head = _SkipNode(-np.inf, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0
        self._built = True
        # Insert in sorted order; appending to the tail is cheap because
        # the search path is short for already-largest keys.
        for key, value in zip(arr, vals):
            self.insert(float(key), value)
        self.stats.size_bytes = self._size * 40
        return self

    def _find_predecessors(self, key: float) -> list[_SkipNode]:
        """Predecessor pointers for ``key`` at every level.

        Level-bounded descent: the outer loop walks the tower height and
        each level's forward scan advances a shared cursor — the classic
        expected-O(log n) skip-list search.
        """
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            while node.forward[lvl] is not None and node.forward[lvl].key < key:
                node = node.forward[lvl]
                self.stats.comparisons += 1
            update[lvl] = node
        return update

    def lookup(self, key: float) -> object | None:
        self._require_built()
        key = float(key)
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        self.stats.nodes_visited += 1
        if node is not None and node.key == key:
            self.stats.keys_scanned += 1
            return node.value
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high:
            return []
        update = self._find_predecessors(float(low))
        node = update[0].forward[0]
        out: list[tuple[float, object]] = []
        while node is not None and node.key <= high:
            out.append((node.key, node.value))
            self.stats.keys_scanned += 1
            node = node.forward[0]
        return out

    def insert(self, key: float, value: object | None = None) -> None:
        """Level-bounded splice: expected-O(log n) predecessor search,
        then a tower update of at most ``_MAX_LEVEL`` pointers."""
        self._require_built()
        key = float(key)
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            node.value = value
            return
        level = self._random_level()
        if level > self._level:
            self._level = level
        new_node = _SkipNode(key, value, level)
        for lvl in range(level):
            new_node.forward[lvl] = update[lvl].forward[lvl]
            update[lvl].forward[lvl] = new_node
        self._size += 1
        self.stats.size_bytes = self._size * 40

    def delete(self, key: float) -> bool:
        self._require_built()
        key = float(key)
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is None or node.key != key:
            return False
        for lvl in range(len(node.forward)):
            if update[lvl].forward[lvl] is node:
                update[lvl].forward[lvl] = node.forward[lvl]
        self._size -= 1
        self.stats.size_bytes = self._size * 40
        return True

    def items(self) -> Iterator[tuple[float, object]]:
        """Yield all pairs in key order."""
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    # -- built-state export: the chain flattens to arrays ------------------
    #: Node-holding attributes nulled out during export (subclasses extend).
    _STATE_NODE_ATTRS: tuple[str, ...] = ("_head",)

    def export_state(self) -> IndexState:
        """Flatten the tower chain into (keys, levels, values) columns.

        The generic exporter would pickle the linked ``_SkipNode`` chain,
        which recurses once per node and overflows pickle's recursion
        limit beyond a few hundred keys; flattening keeps the export
        iterative and puts the key column into a shareable array.
        """
        self._require_built()
        keys: list[float] = []
        levels: list[int] = []
        values: list[object] = []
        node = self._head.forward[0]
        while node is not None:
            keys.append(node.key)
            levels.append(len(node.forward))
            values.append(node.value)
            node = node.forward[0]
        saved = {name: getattr(self, name) for name in self._STATE_NODE_ATTRS}
        try:
            for name in self._STATE_NODE_ATTRS:
                setattr(self, name, None)
            self._chain_flat = (
                np.asarray(keys, dtype=np.float64),
                np.asarray(levels, dtype=np.int64),
                values,
            )
            return export_index_state(self)
        finally:
            del self._chain_flat
            for name, value in saved.items():
                setattr(self, name, value)

    @classmethod
    def from_state(cls, state: IndexState) -> "SkipListIndex":
        """Rebuild the tower chain from the flattened columns."""
        instance = super().from_state(state)
        assert isinstance(instance, SkipListIndex)
        keys_arr, levels_arr, values = instance.__dict__.pop("_chain_flat")
        head = _SkipNode(-np.inf, None, _MAX_LEVEL)
        tails = [head] * _MAX_LEVEL
        for key, level, value in zip(keys_arr, levels_arr, values):
            node = _SkipNode(float(key), value, int(level))
            for lvl in range(int(level)):
                tails[lvl].forward[lvl] = node
                tails[lvl] = node
        instance._head = head
        instance._restore_from_chain()
        return instance

    def _restore_from_chain(self) -> None:
        """Hook: rebuild derived node references after :meth:`from_state`."""

    def __len__(self) -> int:
        return self._size
