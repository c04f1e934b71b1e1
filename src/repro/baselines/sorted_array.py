"""Sorted array with binary search — the canonical 1-D baseline.

Every learned one-dimensional index is, at heart, a way to beat binary
search over this exact layout.  The benchmark harness uses it both as the
performance baseline and as the correctness oracle for all other indexes.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex, as_object_array

__all__ = ["SortedArrayIndex"]


class SortedArrayIndex(MutableOneDimIndex):
    """Binary search over a sorted key array, with aligned values.

    Inserts and deletes are O(n) (array shifts) — that is exactly the
    trade-off traditional sorted layouts make and what the delta-buffer
    learned indexes avoid.
    """

    name = "sorted-array"
    #: Rows from which ``lookup_batch`` runs the kernel: at 10⁵ keys one
    #: ``searchsorted`` call costs ~8 µs and a Python binary search ~3 µs
    #: a row (E17's crossover arm; DESIGN.md "Small batches").
    batch_crossover = 4

    def __init__(self) -> None:
        super().__init__()
        self._keys: list[float] = []
        self._values: list[object] = []
        #: numpy mirror of ``_keys``/``_values`` for the batch path,
        #: rebuilt lazily after inserts/deletes invalidate it.
        self._keys_np: np.ndarray | None = None
        self._values_np: np.ndarray | None = None

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "SortedArrayIndex":
        arr, vals = self._prepare(keys, values)
        self._keys = [float(k) for k in arr]
        self._values = vals
        self._keys_np = arr
        self._values_np = as_object_array(vals)
        self._built = True
        self.stats.size_bytes = 16 * len(self._keys)
        return self

    def _locate(self, key: float) -> int:
        """Binary-search index of ``key`` (first >=), counting comparisons."""
        lo, hi = 0, len(self._keys)
        while lo < hi:
            mid = (lo + hi) // 2
            self.stats.comparisons += 1
            if self._keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def lookup(self, key: float) -> object | None:
        self._require_built()
        idx = self._locate(key)
        if idx < len(self._keys) and self._keys[idx] == key:
            self.stats.keys_scanned += 1
            return self._values[idx]
        return None

    def _lookup_batch(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized batch lookup: one ``np.searchsorted`` for the batch."""
        out = np.full(qs.size, None, dtype=object)
        if self._keys_np is None:
            self._keys_np = np.asarray(self._keys, dtype=np.float64)
            self._values_np = as_object_array(self._values)
        arr = self._keys_np
        n = arr.size
        if n == 0:
            return out
        pos = np.searchsorted(arr, qs, side="left")
        hit = (pos < n) & (arr[np.minimum(pos, n - 1)] == qs)
        hit_idx = np.nonzero(hit)[0]
        self.stats.comparisons += qs.size * int(math.ceil(math.log2(max(n, 2))))
        self.stats.keys_scanned += int(hit_idx.size)
        out[hit_idx] = self._values_np[pos[hit_idx]]
        return out

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high:
            return []
        first = self._locate(low)
        out: list[tuple[float, object]] = []
        i = first
        while i < len(self._keys) and self._keys[i] <= high:
            out.append((self._keys[i], self._values[i]))
            self.stats.keys_scanned += 1
            i += 1
        return out

    def _insert(self, key: float, value: object | None) -> None:
        self._keys_np = self._values_np = None
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            self._values[idx] = value
            return
        self._keys.insert(idx, key)
        self._values.insert(idx, value)
        self.stats.size_bytes = 16 * len(self._keys)

    def _delete(self, key: float) -> bool:
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            self._keys_np = self._values_np = None
            del self._keys[idx]
            del self._values[idx]
            self.stats.size_bytes = 16 * len(self._keys)
            return True
        return False

    def __len__(self) -> int:
        return len(self._keys)

    def keys_array(self) -> np.ndarray:
        """The sorted keys as a numpy array (for oracles in tests)."""
        return np.asarray(self._keys, dtype=np.float64)
