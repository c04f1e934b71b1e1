"""XIndex-style two-layer learned index with per-group delta buffers.

XIndex (Tang et al., 2020) targets concurrency, which a single-threaded
reproduction cannot show; what it *structurally* contributes — and what
this class reproduces — is the two-layer design: a root directory of
rank-partitioned groups, each holding a trained linear model over its
sorted run plus a delta buffer for inserts, with per-group compaction
that merges the buffer and retrains the model (the operation XIndex
performs in the background).
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex
from repro.models.linear import LinearModel
from repro.onedim._search import bounded_binary_search

__all__ = ["XIndexStyleIndex"]


class _Group:
    """One group: sorted run + model + delta buffer."""

    __slots__ = ("pivot", "keys", "values", "model", "error", "buf_keys", "buf_values")

    def __init__(self, pivot: float, keys: np.ndarray, values: list[object]) -> None:
        self.pivot = pivot
        self.keys = keys
        self.values = values
        self.model = LinearModel()
        self.error = 0
        self.buf_keys: list[float] = []
        self.buf_values: list[object] = []
        self.retrain()

    def retrain(self) -> None:
        n = self.keys.size
        if n == 0:
            self.model = LinearModel()
            self.error = 0
            return
        positions = np.arange(n, dtype=np.float64)
        self.model = LinearModel.fit(self.keys, positions)
        preds = np.clip(np.rint(self.model.predict_array(self.keys)), 0, n - 1)
        self.error = int(np.max(np.abs(preds - positions)))


class XIndexStyleIndex(MutableOneDimIndex):
    """Two-layer learned index: group directory + per-group buffers.

    Args:
        group_size: target keys per group at build/compaction time.
        buffer_limit: buffered inserts per group before compaction.
    """

    name = "xindex"

    def __init__(self, group_size: int = 1024, buffer_limit: int = 128) -> None:
        super().__init__()
        if group_size < 16:
            raise ValueError("group_size must be >= 16")
        if buffer_limit < 1:
            raise ValueError("buffer_limit must be >= 1")
        self.group_size = group_size
        self.buffer_limit = buffer_limit
        self._groups: list[_Group] = []
        self._pivots: list[float] = []
        self._size = 0

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "XIndexStyleIndex":
        arr, vals = self._prepare(keys, values)
        self._groups = []
        self._size = int(arr.size)
        self._built = True
        for start in range(0, arr.size, self.group_size):
            end = min(start + self.group_size, arr.size)
            group = _Group(float(arr[start]), arr[start:end].copy(), vals[start:end])
            self._groups.append(group)
        self._pivots = [g.pivot for g in self._groups]
        self._refresh_size()
        return self

    def _refresh_size(self) -> None:
        self.stats.size_bytes = sum(
            24 + 16 * int(g.keys.size) + 16 * len(g.buf_keys) for g in self._groups
        )
        self.stats.extra["groups"] = len(self._groups)

    def _group_for(self, key: float) -> _Group | None:
        if not self._groups:
            return None
        idx = bisect.bisect_right(self._pivots, key) - 1
        self.stats.comparisons += max(1, len(self._pivots).bit_length())
        return self._groups[max(idx, 0)]

    @staticmethod
    def _predict(group: _Group, key: float) -> int:
        """The group model's position for ``key``, clamped into its run."""
        raw = group.model.predict(key)
        if not math.isfinite(key):
            # +-inf probes (open-ended scans) saturate; NaN goes last.
            raw = 0 if key < 0 else group.keys.size - 1
        return int(np.clip(round(raw), 0, group.keys.size - 1))

    # -- reads ---------------------------------------------------------------
    def lookup(self, key: float) -> object | None:
        self._require_built()
        key = float(key)
        group = self._group_for(key)
        if group is None:
            return None
        self.stats.nodes_visited += 1
        if group.keys.size:
            self.stats.model_predictions += 1
            predicted = self._predict(group, key)
            pos = bounded_binary_search(group.keys, key, predicted, group.error + 1, self.stats)
            if pos < group.keys.size and group.keys[pos] == key:
                self.stats.keys_scanned += 1
                return group.values[pos]
        bpos = bisect.bisect_left(group.buf_keys, key)
        if bpos < len(group.buf_keys) and group.buf_keys[bpos] == key:
            self.stats.keys_scanned += 1
            return group.buf_values[bpos]
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high or not self._groups:
            return []
        low = float(low)
        high = float(high)
        start = max(bisect.bisect_right(self._pivots, low) - 1, 0)
        out: list[tuple[float, object]] = []
        for gi in range(start, len(self._groups)):
            group = self._groups[gi]
            # Every key (run or buffer) in group i > 0 is >= its pivot, so
            # once pivots pass `high` nothing further can match.  Group 0
            # may hold keys below its pivot and is always scanned.
            if gi > 0 and group.pivot > high:
                break
            merged: list[tuple[float, object]] = []
            lo_i = int(np.searchsorted(group.keys, low, side="left"))
            hi_i = int(np.searchsorted(group.keys, high, side="right"))
            merged.extend((float(group.keys[i]), group.values[i]) for i in range(lo_i, hi_i))
            b_lo = bisect.bisect_left(group.buf_keys, low)
            b_hi = bisect.bisect_right(group.buf_keys, high)
            merged.extend(zip(group.buf_keys[b_lo:b_hi], group.buf_values[b_lo:b_hi]))
            merged.sort(key=lambda kv: kv[0])
            out.extend(merged)
            self.stats.keys_scanned += len(merged)
        return out

    # -- writes --------------------------------------------------------------
    def _insert(self, key: float, value: object | None) -> None:
        group = self._group_for(key)
        if group is None:
            self._groups = [_Group(key, np.array([key]), [value])]
            self._pivots = [key]
            self._size = 1
            return
        # Replace in the run if present.
        if group.keys.size:
            predicted = self._predict(group, key)
            pos = bounded_binary_search(group.keys, key, predicted, group.error + 1, self.stats)
            if pos < group.keys.size and group.keys[pos] == key:
                group.values[pos] = value
                return
        bpos = bisect.bisect_left(group.buf_keys, key)
        if bpos < len(group.buf_keys) and group.buf_keys[bpos] == key:
            group.buf_values[bpos] = value
            return
        group.buf_keys.insert(bpos, key)
        group.buf_values.insert(bpos, value)
        self._size += 1
        if len(group.buf_keys) > self.buffer_limit:
            self._compact(group)
        self._refresh_size()

    def _compact(self, group: _Group) -> None:
        """Merge the buffer into the run, retrain, split oversized groups.

        Capacity-bounded: one group's run and buffer, and groups split
        once they exceed ``2 * group_size`` — never the whole key set.
        """
        all_keys = np.concatenate([group.keys, np.asarray(group.buf_keys)])
        all_values = list(group.values) + list(group.buf_values)
        order = np.argsort(all_keys, kind="mergesort")
        merged_keys = all_keys[order]
        merged_values = [all_values[i] for i in order]
        gi = self._groups.index(group)
        if merged_keys.size > 2 * self.group_size:
            replacements = []
            for start in range(0, merged_keys.size, self.group_size):
                end = min(start + self.group_size, merged_keys.size)
                replacements.append(_Group(float(merged_keys[start]),
                                           merged_keys[start:end].copy(),
                                           merged_values[start:end]))
            self._groups[gi:gi + 1] = replacements
        else:
            group.keys = merged_keys
            group.values = merged_values
            group.buf_keys = []
            group.buf_values = []
            group.pivot = min(group.pivot, float(merged_keys[0]))
            group.retrain()
        self._pivots = [g.pivot for g in self._groups]
        self.stats.extra["compactions"] = self.stats.extra.get("compactions", 0) + 1

    def _delete(self, key: float) -> bool:
        group = self._group_for(key)
        if group is None:
            return False
        bpos = bisect.bisect_left(group.buf_keys, key)
        if bpos < len(group.buf_keys) and group.buf_keys[bpos] == key:
            del group.buf_keys[bpos]
            del group.buf_values[bpos]
            self._size -= 1
            return True
        if group.keys.size:
            predicted = self._predict(group, key)
            pos = bounded_binary_search(group.keys, key, predicted, group.error + 1, self.stats)
            if pos < group.keys.size and group.keys[pos] == key:
                group.keys = np.delete(group.keys, pos)
                del group.values[pos]
                group.retrain()
                self._size -= 1
                return True
        return False

    @property
    def num_groups(self) -> int:
        """Current number of groups in the directory."""
        return len(self._groups)

    def __len__(self) -> int:
        return self._size
