"""The PGM-index — Ferragina & Vinciguerra, 2020.

The Piecewise Geometric Model index partitions the sorted keys into the
fewest epsilon-bounded linear segments (see :mod:`repro.models.pla`),
then recursively indexes the segments' first keys with the same
construction until one segment remains.  Every level narrows the search
to a window of ``2 * epsilon + 1`` positions, giving the worst-case
query bound the paper proves.

:class:`DynamicPGMIndex` adds inserts/deletes with the paper's LSM-style
construction: a logarithmic sequence of static PGM levels that are
merged on overflow (the canonical *delta-buffer* strategy in the
survey's taxonomy).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex, OneDimIndex, as_object_array
from repro.models.pla import Segment, segment_stream
from repro.onedim._search import bounded_binary_search, bounded_search_batch, scan_range

__all__ = ["PGMIndex", "DynamicPGMIndex"]


class PGMIndex(OneDimIndex):
    """Static multi-level PGM-index (immutable; the epsilon knob trades
    index size against query-time search window).

    Args:
        epsilon: leaf-level error bound (positions).
        epsilon_recursive: error bound of the internal levels.
    """

    name = "pgm"

    def __init__(self, epsilon: int = 64, epsilon_recursive: int = 4) -> None:
        super().__init__()
        if epsilon < 1 or epsilon_recursive < 1:
            raise ValueError("epsilon bounds must be >= 1")
        self.epsilon = epsilon
        self.epsilon_recursive = epsilon_recursive
        self._keys = np.empty(0)
        self._values: list[object] = []
        #: levels[0] = leaf segments over the data; levels[i>0] index the
        #: first-keys of the segments one level below.
        self._levels: list[list[Segment]] = []
        self._level_keys: list[np.ndarray] = []
        #: per-level flat segment parameters (key, slope, anchor_pos,
        #: first, last) for the vectorized batch-lookup path.
        self._level_arrays: list[tuple[np.ndarray, ...]] = []
        self._values_arr = np.empty(0, dtype=object)

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "PGMIndex":
        self._keys, self._values = self._prepare(keys, values)
        self._built = True
        self._levels = []
        self._level_keys = []
        self._level_arrays = []
        self._values_arr = as_object_array(self._values)
        n = self._keys.size
        if n == 0:
            return self

        level_keys = self._keys
        epsilon = self.epsilon
        while True:
            segments = segment_stream(level_keys, float(epsilon))
            self._levels.append(segments)
            self._level_keys.append(level_keys)
            if len(segments) <= 1:
                break
            level_keys = np.array([seg.key for seg in segments])
            epsilon = self.epsilon_recursive

        for segments in self._levels:
            self._level_arrays.append((
                np.array([seg.key for seg in segments]),
                np.array([seg.slope for seg in segments]),
                np.array([seg.anchor_pos for seg in segments]),
                np.array([seg.first for seg in segments], dtype=np.int64),
                np.array([seg.last for seg in segments], dtype=np.int64),
            ))

        self.stats.size_bytes = sum(
            seg.size_bytes for level in self._levels for seg in level
        )
        self.stats.extra["levels"] = len(self._levels)
        self.stats.extra["segments"] = len(self._levels[0])
        return self

    # -- queries ------------------------------------------------------------
    def _locate(self, key: float) -> int:
        """Lower-bound position of ``key`` in the data array.

        Level-bounded: the loop walks the recursive-model hierarchy
        (O(log n) levels), doing one epsilon-bounded search per level.
        """
        # Walk levels from the top (last) down to the leaves (first).
        top = len(self._levels) - 1
        seg_idx = 0
        for level in range(top, -1, -1):
            segments = self._levels[level]
            level_keys = self._level_keys[level]
            epsilon = self.epsilon if level == 0 else self.epsilon_recursive
            if level == top:
                seg_idx = 0
            seg = segments[seg_idx]
            self.stats.model_predictions += 1
            self.stats.nodes_visited += 1
            raw = seg.predict(key)
            if not np.isfinite(raw):
                # +-inf probes (open-ended scans): saturate the prediction.
                raw = seg.first if raw < 0 else seg.last - 1
            predicted = int(np.clip(round(raw), seg.first, seg.last - 1))
            pos = bounded_binary_search(level_keys, key, predicted, epsilon + 1, self.stats)
            if level == 0:
                return pos
            # The entries of this level's key array are the first-keys of
            # the segments one level below, so `pos` is a hint for the
            # covering segment; _segment_containing walks to the exact one.
            hint = min(pos, len(self._levels[level - 1]) - 1)
            seg_idx = self._segment_containing(level - 1, hint, key)
        return 0  # pragma: no cover - loop always returns at level 0

    def _segment_containing(self, level: int, hint: int, key: float) -> int:
        """Resolve the segment index at ``level`` that covers ``key``."""
        segments = self._levels[level]
        idx = min(max(hint, 0), len(segments) - 1)
        while idx + 1 < len(segments) and segments[idx + 1].key <= key:
            idx += 1
            self.stats.comparisons += 1
        while idx > 0 and segments[idx].key > key:
            idx -= 1
            self.stats.comparisons += 1
        return idx

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

    def _locate_batch(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_locate` over a whole query batch.

        Walks the PLA levels top-down exactly like the scalar path, but
        carries an int64 array of per-query segment indexes instead of a
        single one.  The scalar ``_segment_containing`` walk resolves to
        the last segment whose first-key is <= the query (clamped to 0),
        which is one ``np.searchsorted(side='right') - 1`` per level.
        """
        top = len(self._levels) - 1
        m = qs.size
        seg_idx = np.zeros(m, dtype=np.int64)
        for level in range(top, -1, -1):
            seg_keys, slopes, anchors, firsts, lasts = self._level_arrays[level]
            level_keys = self._level_keys[level]
            epsilon = self.epsilon if level == 0 else self.epsilon_recursive
            raw = slopes[seg_idx] * (qs - seg_keys[seg_idx]) + anchors[seg_idx]
            bad = ~np.isfinite(raw)
            if bad.any():
                # +-inf probes: saturate exactly like the scalar path
                # (NaN compares false, so it saturates high there too).
                with np.errstate(invalid="ignore"):
                    raw = np.where(
                        bad,
                        np.where(raw < 0, firsts[seg_idx],
                                 lasts[seg_idx] - 1).astype(np.float64),
                        raw,
                    )
            predicted = np.clip(np.rint(raw), firsts[seg_idx],
                                lasts[seg_idx] - 1).astype(np.int64)
            self.stats.model_predictions += m
            self.stats.nodes_visited += m
            pos = bounded_search_batch(level_keys, qs, predicted,
                                       epsilon + 1, self.stats)
            if level == 0:
                return pos
            below_keys = self._level_arrays[level - 1][0]
            seg_idx = np.clip(
                np.searchsorted(below_keys, qs, side="right") - 1,
                0, below_keys.size - 1,
            )
        return np.zeros(m, dtype=np.int64)  # pragma: no cover

    def lookup_batch(self, keys) -> np.ndarray:
        """Vectorized batch lookup (element-wise equal to scalar lookups)."""
        self._require_built()
        qs = np.asarray(keys, dtype=np.float64)
        if qs.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        m = qs.size
        out = np.full(m, None, dtype=object)
        n = self._keys.size
        if n == 0 or m == 0:
            return out
        pos = self._locate_batch(qs)
        hit = (pos < n) & (self._keys[np.minimum(pos, n - 1)] == qs)
        hit_idx = np.nonzero(hit)[0]
        self.stats.keys_scanned += int(hit_idx.size)
        out[hit_idx] = self._values_arr[pos[hit_idx]]
        return out

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if high < low or self._keys.size == 0:
            return []
        start = self._locate(float(low))
        return scan_range(self._keys, self._values, start, high, self.stats)

    @property
    def num_segments(self) -> int:
        """Leaf-level segment count (the size driver)."""
        return len(self._levels[0]) if self._levels else 0

    @property
    def num_levels(self) -> int:
        """Number of PLA levels including the leaf level."""
        return len(self._levels)

    def __len__(self) -> int:
        return int(self._keys.size)


class DynamicPGMIndex(MutableOneDimIndex):
    """Dynamic PGM: a logarithmic LSM of static PGM indexes.

    Inserts go to an unsorted buffer; when it fills, it is merged into
    the smallest static level, cascading merges like an LSM-tree.  This
    is the delta-buffer insert strategy in the survey's taxonomy, in
    contrast with ALEX/LIPP's in-place strategy.

    Args:
        epsilon: error bound of every static level.
        buffer_capacity: inserts buffered before a merge (default 256).
    """

    name = "dynamic-pgm"

    def __init__(self, epsilon: int = 64, buffer_capacity: int = 256) -> None:
        super().__init__()
        if buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        self.epsilon = epsilon
        self.buffer_capacity = buffer_capacity
        self._buffer: dict[float, object] = {}
        self._deleted: set[float] = set()
        #: static levels, geometrically growing; level i holds <= base * 2^i keys.
        self._static: list[PGMIndex | None] = []

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "DynamicPGMIndex":
        arr, vals = self._prepare(keys, values)
        self._buffer = {}
        self._deleted = set()
        self._static = []
        self._built = True
        if arr.size:
            index = PGMIndex(epsilon=self.epsilon).build(arr, vals)
            self._static = [None] * self._level_for(arr.size) + [index]
        self._refresh_size()
        return self

    def _level_for(self, count: int) -> int:
        level = 0
        size = self.buffer_capacity
        while size < count:
            size *= 2
            level += 1
        return level

    def _refresh_size(self) -> None:
        self.stats.size_bytes = sum(
            idx.stats.size_bytes for idx in self._static if idx is not None
        ) + 48 * len(self._buffer)
        self.stats.extra["static_levels"] = sum(1 for idx in self._static if idx is not None)

    # -- writes -----------------------------------------------------------
    def insert(self, key: float, value: object | None = None) -> None:
        self._require_built()
        key = float(key)
        self._buffer[key] = value
        self._deleted.discard(key)
        if len(self._buffer) >= self.buffer_capacity:
            self._merge_buffer()

    def delete(self, key: float) -> bool:
        self._require_built()
        key = float(key)
        present = self.lookup(key) is not None
        if not present:
            return False
        self._buffer.pop(key, None)
        self._deleted.add(key)
        return True

    def _merge_buffer(self) -> None:
        """Cascade the buffer into the static levels (LSM merge).

        Compaction-bounded: each key is rewritten once per level it
        cascades through, amortizing the merge to O(log n) per insert.
        """
        items = dict(self._buffer)
        self._buffer = {}
        level = 0
        while True:
            if level >= len(self._static):
                self._static.extend([None] * (level - len(self._static) + 1))
            existing = self._static[level]
            if existing is None:
                break
            for k, v in zip(existing._keys, existing._values):
                items.setdefault(float(k), v)
            self._static[level] = None
            level += 1
        # Apply pending tombstones during the merge.
        live = {k: v for k, v in items.items() if k not in self._deleted}
        self._deleted -= set(items)
        if live:
            keys = np.array(sorted(live))
            values = [live[float(k)] for k in keys]
            target = max(level, self._level_for(keys.size))
            if target >= len(self._static):
                self._static.extend([None] * (target - len(self._static) + 1))
            if self._static[target] is not None:
                # Cascaded into an occupied level: merge once more.
                upper = self._static[target]
                merged: dict[float, object] = {
                    float(k): v for k, v in zip(upper._keys, upper._values)
                }
                merged.update(live)
                merged = {k: v for k, v in merged.items() if k not in self._deleted}
                keys = np.array(sorted(merged))
                values = [merged[float(k)] for k in keys]
            self._static[target] = PGMIndex(epsilon=self.epsilon).build(keys, values)
        self._refresh_size()

    def compact(self) -> None:
        """Delta-merge every level (and the buffer) into one static run.

        The self-tuning rebuild fast path: equivalent to a fresh
        ``build`` over the live items — afterwards every lookup probes
        exactly one static level again — but done from the level arrays
        directly, without materializing the ``range_query`` tuple list
        an external rebuild would pay for.  Newest data wins duplicate
        keys (buffer first, then smaller levels), tombstones drop.
        """
        self._require_built()
        items: dict[float, object] = dict(self._buffer)
        for index in self._static:
            if index is None:
                continue
            for k, v in zip(index._keys, index._values):
                items.setdefault(float(k), v)
        self._buffer = {}
        live = {k: v for k, v in items.items() if k not in self._deleted}
        self._deleted = set()
        self._static = []
        if live:
            keys = np.array(sorted(live))
            values = [live[float(k)] for k in keys]
            index = PGMIndex(epsilon=self.epsilon).build(keys, values)
            self._static = [None] * self._level_for(keys.size) + [index]
        self._refresh_size()

    # -- reads -------------------------------------------------------------
    def lookup(self, key: float) -> object | None:
        """Level-bounded probe sequence: ``_static`` holds one run per
        geometric level, so at most O(log n) sub-index lookups."""
        self._require_built()
        key = float(key)
        if key in self._deleted:
            return None
        if key in self._buffer:
            self.stats.comparisons += 1
            return self._buffer[key]
        for index in self._static:
            if index is None:
                continue
            self.stats.nodes_visited += 1
            result = index.lookup(key)
            if result is not None:
                self.stats.comparisons += index.stats.comparisons
                index.stats.reset_counters()
                return result
            index.stats.reset_counters()
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if high < low:
            return []
        merged: dict[float, object] = {}
        for index in self._static:
            if index is None:
                continue
            self.stats.nodes_visited += 1
            for k, v in index.range_query(low, high):
                merged.setdefault(k, v)
            # Fold the per-level counters into the LSM-wide accounting so
            # the cost of a range query over L levels is visible.
            self.stats.comparisons += index.stats.comparisons
            self.stats.keys_scanned += index.stats.keys_scanned
            index.stats.reset_counters()
        for k, v in self._buffer.items():
            self.stats.keys_scanned += 1
            if low <= k <= high:
                merged[k] = v
        for k in self._deleted:
            merged.pop(k, None)
        return sorted(merged.items())

    def __len__(self) -> int:
        seen: set[float] = set(self._buffer)
        for index in self._static:
            if index is not None:
                seen.update(float(k) for k in index._keys)
        return len(seen - self._deleted)
