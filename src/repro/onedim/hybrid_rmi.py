"""Hybrid-RMI — the hybrid variant from the original learned-index paper.

Kraska et al. (2018) observed that some regions of the key space resist
linear modelling; their hybrid index keeps the RMI top model but replaces
the worst-fitting leaf models with B-trees.  This is the canonical
*immutable hybrid / B-tree* entry in the survey's taxonomy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.btree import BPlusTreeIndex
from repro.core.interfaces import OneDimIndex
from repro.models.linear import LinearModel
from repro.onedim._search import bounded_binary_search, exponential_search

__all__ = ["HybridRMIIndex"]


class HybridRMIIndex(OneDimIndex):
    """RMI whose bad leaves are replaced by B-trees.

    Args:
        num_models: second-stage model count.
        error_threshold: leaves whose max error exceeds this many
            positions become B-trees instead of linear models.
        btree_fanout: fanout of replacement B-trees.
    """

    name = "hybrid-rmi"

    def __init__(self, num_models: int = 128, error_threshold: int = 256,
                 btree_fanout: int = 64) -> None:
        super().__init__()
        if num_models < 1:
            raise ValueError("num_models must be >= 1")
        if error_threshold < 1:
            raise ValueError("error_threshold must be >= 1")
        self.num_models = num_models
        self.error_threshold = error_threshold
        self.btree_fanout = btree_fanout
        self._keys = np.empty(0)
        self._values: list[object] = []
        self._root = LinearModel()
        #: per leaf: ("model", LinearModel, error) or ("btree", BPlusTreeIndex, bounds)
        self._leaves: list[tuple] = []

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "HybridRMIIndex":
        self._keys, self._values = self._prepare(keys, values)
        n = self._keys.size
        self._built = True
        self._leaves = []
        if n == 0:
            self._root = LinearModel()
            return self

        positions = np.arange(n, dtype=np.float64)
        self._root = LinearModel.fit(self._keys, positions)
        root_pred = self._root.predict_array(self._keys)
        leaf_ids = np.clip((root_pred / n * self.num_models).astype(int), 0, self.num_models - 1)

        btree_count = 0
        for m in range(self.num_models):
            mask = leaf_ids == m
            if not np.any(mask):
                self._leaves.append(("model", LinearModel(), 0))
                continue
            xs = self._keys[mask]
            ys = positions[mask]
            leaf = LinearModel.fit(xs, ys)
            preds = np.clip(np.rint(leaf.predict_array(xs)), 0, n - 1)
            err = int(np.max(np.abs(preds - ys)))
            if err > self.error_threshold:
                # This region resists linear modelling: use a B-tree that
                # maps keys to their global positions.
                btree = BPlusTreeIndex(fanout=self.btree_fanout).build(xs, [int(p) for p in ys])
                self._leaves.append(("btree", btree, (int(ys[0]), int(ys[-1]))))
                btree_count += 1
            else:
                self._leaves.append(("model", leaf, err))

        total = self._root.size_bytes
        for kind, payload, _ in self._leaves:
            total += payload.stats.size_bytes if kind == "btree" else payload.size_bytes
        self.stats.size_bytes = total
        self.stats.extra["btree_leaves"] = btree_count
        return self

    def _locate(self, key: float) -> int:
        n = self._keys.size
        self.stats.model_predictions += 1
        root_pred = self._root.predict(key)
        leaf_id = int(np.clip(root_pred / n * self.num_models, 0, self.num_models - 1))
        kind, payload, meta = self._leaves[leaf_id]
        self.stats.nodes_visited += 1
        if kind == "btree":
            result = payload.lookup(key)
            if result is not None:
                return int(result)
            # Absent key: fall back to a bounded search around the
            # B-tree's position range.
            lo, hi = meta
            predicted = (lo + hi) // 2
            return exponential_search(self._keys, key, predicted, self.stats)
        self.stats.model_predictions += 1
        raw = payload.predict(key)
        if not np.isfinite(raw):
            # +-inf probes (open-ended scans): saturate the prediction.
            raw = 0 if raw < 0 else n - 1
        predicted = int(np.clip(round(raw), 0, n - 1))
        pos = bounded_binary_search(self._keys, key, predicted, int(meta), self.stats)
        if (pos < n and self._keys[pos] < key) or (pos > 0 and self._keys[pos - 1] >= key):
            pos = exponential_search(self._keys, key, predicted, self.stats)
        return pos

    def lookup(self, key: float) -> object | None:
        self._require_built()
        if self._keys.size == 0:
            return None
        key = float(key)
        pos = self._locate(key)
        if pos < self._keys.size and self._keys[pos] == key:
            self.stats.keys_scanned += 1
            return self._values[pos]
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if high < low or self._keys.size == 0:
            return []
        start = self._locate(float(low))
        out: list[tuple[float, object]] = []
        i = start
        while i < self._keys.size and self._keys[i] <= high:
            out.append((float(self._keys[i]), self._values[i]))
            self.stats.keys_scanned += 1
            i += 1
        return out

    @property
    def btree_leaf_count(self) -> int:
        """How many leaves fell back to B-trees."""
        return sum(1 for kind, *_ in self._leaves if kind == "btree")

    def __len__(self) -> int:
        return int(self._keys.size)
