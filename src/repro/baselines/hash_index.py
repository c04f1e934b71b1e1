"""Hash index baseline.

Point-query champion, range-query nonstarter — included so benchmarks can
show both sides.  Backed by Python's dict (itself an open-addressing hash
table) plus a sorted key copy for the (slow) range path, mirroring how a
hash index in a real system needs a secondary structure for ranges.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from repro.core.interfaces import MutableOneDimIndex

__all__ = ["HashIndex"]


class HashIndex(MutableOneDimIndex):
    """Dict-backed hash index; ranges fall back to a sorted key list."""

    name = "hash"

    def __init__(self) -> None:
        super().__init__()
        self._table: dict[float, object] = {}
        self._sorted_keys: list[float] = []
        self._sorted_dirty = False

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "HashIndex":
        arr, vals = self._prepare(keys, values)
        self._table = {float(k): v for k, v in zip(arr, vals)}
        self._sorted_keys = sorted(self._table)
        self._sorted_dirty = False
        self._built = True
        self.stats.size_bytes = 48 * len(self._table)
        return self

    def lookup(self, key: float) -> object | None:
        self._require_built()
        self.stats.comparisons += 1
        return self._table.get(float(key))

    def _ensure_sorted(self) -> None:
        if self._sorted_dirty:
            self._sorted_keys = sorted(self._table)
            self._sorted_dirty = False

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high:
            return []
        self._ensure_sorted()
        first = bisect.bisect_left(self._sorted_keys, float(low))
        out: list[tuple[float, object]] = []
        for i in range(first, len(self._sorted_keys)):
            k = self._sorted_keys[i]
            if k > high:
                break
            out.append((k, self._table[k]))
            self.stats.keys_scanned += 1
        return out

    def _insert(self, key: float, value: object | None) -> None:
        if key not in self._table:
            self._sorted_dirty = True
        self._table[key] = value
        self.stats.size_bytes = 48 * len(self._table)

    def _delete(self, key: float) -> bool:
        if key in self._table:
            del self._table[key]
            self._sorted_dirty = True
            self.stats.size_bytes = 48 * len(self._table)
            return True
        return False

    def __len__(self) -> int:
        return len(self._table)
