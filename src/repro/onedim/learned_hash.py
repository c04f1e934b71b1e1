"""Learned hashing — "Can Learned Models Replace Hash Functions?"
(Sabek et al., 2022).

Instead of a pseudo-random hash, the bucket of a key is its predicted
CDF position: ``bucket = floor(model(key) / n * num_buckets)``.  On keys
a small model can fit, this distributes *better* than random hashing
(fewer collisions, order-preserving buckets for free); on adversarial
keys it degrades toward the model's error.

:class:`LearnedHashIndex` implements a chained hash table over a
CDF-model hash with a classical multiplicative hash as the comparison
baseline (``learned=False``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex
from repro.models.cdf import QuantileModel

__all__ = ["LearnedHashIndex"]

_GOLDEN = 0x9E3779B97F4A7C15


def _classic_hash(key: float, buckets: int) -> int:
    raw = int(np.float64(key).view(np.uint64))
    x = (raw * _GOLDEN) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return int(x % buckets)


class LearnedHashIndex(MutableOneDimIndex):
    """Chained hash table whose hash function is a learned CDF model.

    Args:
        buckets_per_key: table load factor knob (buckets = n * this).
        learned: use the CDF-model hash (True) or the classical
            multiplicative hash (False, the ablation baseline).
        num_quantiles: size of the CDF model.
    """

    name = "learned-hash"

    def __init__(self, buckets_per_key: float = 1.0, learned: bool = True,
                 num_quantiles: int = 128) -> None:
        super().__init__()
        if buckets_per_key <= 0:
            raise ValueError("buckets_per_key must be positive")
        self.buckets_per_key = buckets_per_key
        self.learned = learned
        self.num_quantiles = num_quantiles
        self._model = QuantileModel()
        self._buckets: list[list[tuple[float, object]]] = []
        self._size = 0

    def _bucket_of(self, key: float) -> int:
        buckets = len(self._buckets)
        if buckets == 0:
            return 0
        if self.learned:
            frac = self._model.evaluate(key)
            # NaN takes the last bucket, where it is absent.
            return min(int(frac * buckets), buckets - 1) if frac == frac else buckets - 1
        return _classic_hash(key, buckets)

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "LearnedHashIndex":
        arr, vals = self._prepare(keys, values)
        self._built = True
        self._size = int(arr.size)
        num_buckets = max(8, int(arr.size * self.buckets_per_key))
        self._buckets = [[] for _ in range(num_buckets)]
        if arr.size:
            self._model = QuantileModel.fit(arr, num_quantiles=self.num_quantiles)
            for k, v in zip(arr, vals):
                self._buckets[self._bucket_of(float(k))].append((float(k), v))
        self.stats.size_bytes = num_buckets * 8 + self._size * 24 + self._model.size_bytes
        self.stats.extra["max_chain"] = self.max_chain_length()
        return self

    # -- chain statistics (the paper's headline metric) ----------------------
    def max_chain_length(self) -> int:
        """Longest collision chain."""
        return max((len(b) for b in self._buckets), default=0)

    def mean_probe_length(self) -> float:
        """Expected probes for a uniformly random *stored* key.

        For a chain of length c, finding each member costs 1..c probes,
        so the chain contributes c*(c+1)/2 over c keys.
        """
        if self._size == 0:
            return 0.0
        total = sum(len(b) * (len(b) + 1) / 2 for b in self._buckets)
        return total / self._size

    def occupancy(self) -> float:
        """Fraction of non-empty buckets."""
        if not self._buckets:
            return 0.0
        return sum(1 for b in self._buckets if b) / len(self._buckets)

    # -- queries ----------------------------------------------------------------
    def lookup(self, key: float) -> object | None:
        """Hash to a bucket, then an occupancy-bounded chain scan (the
        bucket count is sized to the data, so expected occupancy is
        O(1); the CDF hash keeps it balanced on skew)."""
        self._require_built()
        key = float(key)
        bucket = self._buckets[self._bucket_of(key)] if self._buckets else []
        self.stats.nodes_visited += 1
        for k, v in bucket:
            self.stats.comparisons += 1
            if k == key:
                return v
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        """Range scan.

        The learned (CDF) hash is order-preserving, so only the bucket
        interval [bucket(low), bucket(high)] needs scanning; the classic
        hash must scan every bucket — exactly the trade-off the paper
        discusses.
        """
        self._require_built()
        if not low <= high:
            return []
        low = float(low)
        high = float(high)
        if self.learned and self._buckets:
            b_lo = self._bucket_of(low)
            b_hi = self._bucket_of(high)
            candidates = self._buckets[b_lo:b_hi + 1]
        else:
            candidates = self._buckets
        out = []
        for bucket in candidates:
            self.stats.nodes_visited += 1
            for k, v in bucket:
                self.stats.keys_scanned += 1
                if low <= k <= high:
                    out.append((k, v))
        out.sort(key=lambda kv: kv[0])
        return out

    # -- updates -----------------------------------------------------------------
    def _insert(self, key: float, value: object | None) -> None:
        """Occupancy-bounded replace scan: the model spreads keys across
        ``num_buckets`` proportional to n, so one bucket's chain stays a
        constant expected length."""
        if not self._buckets:
            self._buckets = [[] for _ in range(8)]
        bucket = self._buckets[self._bucket_of(key)]
        for i, (k, _) in enumerate(bucket):
            if k == key:
                bucket[i] = (key, value)
                return
        bucket.append((key, value))
        self._size += 1

    def _delete(self, key: float) -> bool:
        if not self._buckets:
            return False
        bucket = self._buckets[self._bucket_of(key)]
        for i, (k, _) in enumerate(bucket):
            if k == key:
                del bucket[i]
                self._size -= 1
                return True
        return False

    def __len__(self) -> int:
        return self._size
