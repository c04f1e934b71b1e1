"""Unindexed linear scan — the deliberate O(n)-per-lookup control.

Every complexity argument in the repo needs a known-linear reference
point: the scaling witness (:mod:`repro.bench.scaling`) fits counted
work per operation against each factory's declared
:class:`~repro.core.taxonomy.ComplexityClass`, and this structure is
the 1-d factory that *must* come out O(n).  It stores keys and values
in insertion order with no auxiliary structure at all; a lookup scans
the whole key array.  The scan itself is a single vectorized numpy
comparison (so experiments that loop over every factory stay fast),
but the *counted* work — ``stats.keys_scanned`` — is honestly ``n``
per query, which is what machine-independent analysis measures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex, as_object_array

__all__ = ["LinearScanIndex"]


class LinearScanIndex(MutableOneDimIndex):
    """Full-array scan per query: O(n) lookup, O(n) upsert, no index."""

    name = "linear-scan"

    def __init__(self) -> None:
        super().__init__()
        self._keys: np.ndarray = np.empty(0, dtype=np.float64)
        self._values: np.ndarray = as_object_array([])

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "LinearScanIndex":
        arr, vals = self._prepare(keys, values)
        self._keys = arr
        self._values = as_object_array(vals)
        self._built = True
        self.stats.size_bytes = 16 * int(arr.size)
        return self

    def _scan(self, key: float) -> int:
        """Index of the first occurrence of ``key``, or -1; scans all n."""
        self.stats.keys_scanned += int(self._keys.size)
        hits = np.nonzero(self._keys == key)[0]
        return int(hits[0]) if hits.size else -1

    def lookup(self, key: float) -> object | None:
        self._require_built()
        idx = self._scan(key)
        if idx < 0:
            return None
        return self._values[idx]

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high:
            return []
        arr = self._keys
        self.stats.keys_scanned += int(arr.size)
        idx = np.nonzero((arr >= float(low)) & (arr <= float(high)))[0]
        order = idx[np.argsort(arr[idx], kind="stable")]
        return [(float(arr[i]), self._values[i]) for i in order]

    def _insert(self, key: float, value: object | None) -> None:
        idx = self._scan(key)
        if idx >= 0:
            self._thaw("_values")
            self._values[idx] = value
            return
        self._keys = np.append(self._keys, key)
        self._values = np.append(self._values, as_object_array([value]))
        self.stats.size_bytes = 16 * int(self._keys.size)

    def _delete(self, key: float) -> bool:
        idx = self._scan(key)
        if idx < 0:
            return False
        self._keys = np.delete(self._keys, idx)
        self._values = np.delete(self._values, idx)
        self.stats.size_bytes = 16 * int(self._keys.size)
        return True

    def __len__(self) -> int:
        return int(self._keys.size)
