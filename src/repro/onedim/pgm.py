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

import math
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex, OneDimIndex, as_object_array
from repro.models.pla import Segment, segment_stream
from repro.onedim._search import bounded_binary_search, bounded_search_batch, scan_range

__all__ = ["PGMIndex", "DynamicPGMIndex"]

#: Sentinel telling "not buffered" apart from a buffered ``None`` value.
_MISS = object()


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
            if not math.isfinite(raw):
                # +-inf probes (open-ended scans): saturate the prediction.
                raw = seg.first if raw < 0 else seg.last - 1
            predicted = min(max(round(raw), seg.first), seg.last - 1)
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

    def _find(self, key: float) -> int:
        """Position of ``key`` in the data array, or -1 when absent."""
        n = self._keys.size
        if n == 0:
            return -1
        pos = self._locate(key)
        if pos < n and self._keys[pos] == key:
            return pos
        return -1

    def lookup(self, key: float) -> object | None:
        self._require_built()
        pos = self._find(float(key))
        if pos < 0:
            return None
        self.stats.keys_scanned += 1
        return self._values[pos]

    def _locate_batch(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_locate` over a whole query batch.

        Walks the PLA levels top-down exactly like the scalar path, but
        carries an int64 array of per-query segment indexes instead of a
        single one.  The top level is one segment, so its parameters are
        scalars and need no gathers.  The scalar ``_segment_containing``
        walk resolves to the last segment whose first-key is <= the query
        (clamped to 0), which is one ``np.searchsorted(side='right') - 1``
        per level.
        """
        m = qs.size
        seg_idx: np.ndarray | None = None
        for level in range(len(self._levels) - 1, -1, -1):
            seg_keys, slopes, anchors, firsts, lasts = self._level_arrays[level]
            if seg_idx is None:
                seg_keys, slopes, anchors, firsts, lasts = (
                    seg_keys[0], slopes[0], anchors[0], firsts[0], lasts[0])
            else:
                seg_keys, slopes, anchors, firsts, lasts = (
                    seg_keys[seg_idx], slopes[seg_idx], anchors[seg_idx],
                    firsts[seg_idx], lasts[seg_idx])
            raw = slopes * (qs - seg_keys) + anchors
            finite = np.isfinite(raw)
            if not finite.all():
                # +-inf probes: saturate exactly like the scalar path
                # (NaN compares false, so it saturates high there too).
                with np.errstate(invalid="ignore"):
                    raw = np.where(finite, raw, np.where(raw < 0, firsts, lasts - 1))
            predicted = np.minimum(np.maximum(np.rint(raw), firsts),
                                   lasts - 1).astype(np.int64)
            self.stats.model_predictions += m
            self.stats.nodes_visited += m
            epsilon = self.epsilon if level == 0 else self.epsilon_recursive
            pos = bounded_search_batch(self._level_keys[level], qs, predicted,
                                       epsilon + 1, self.stats)
            if level == 0:
                return pos
            below_keys = self._level_arrays[level - 1][0]
            # side="right" - 1 is at most size - 1 already; only 0 clamps.
            seg_idx = np.maximum(np.searchsorted(below_keys, qs, side="right") - 1, 0)
        return np.zeros(m, dtype=np.int64)  # pragma: no cover

    def _find_batch(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_find` on a non-empty index: ``(positions,
        hit mask)``; a position is meaningful only where the mask is set."""
        n = self._keys.size
        pos = self._locate_batch(qs)
        return pos, (pos < n) & (self._keys[np.minimum(pos, n - 1)] == qs)

    def lookup_batch(self, keys) -> np.ndarray:
        """Vectorized batch lookup (element-wise equal to scalar lookups)."""
        self._require_built()
        qs = np.asarray(keys, dtype=np.float64)
        if qs.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        out = np.full(qs.size, None, dtype=object)
        if self._keys.size == 0 or qs.size == 0:
            return out
        pos, hit = self._find_batch(qs)
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
        The buffer and every full level below the first empty one merge
        into that empty level (newest value wins), so the levels stay
        ordered newest first.  A tombstone survives while a static level
        still holds its key and is dropped once none does.
        """
        items = self._buffer
        self._buffer = {}
        level = 0
        while level < len(self._static) and self._static[level] is not None:
            existing = self._static[level]
            for k, v in zip(existing._keys.tolist(), existing._values):
                items.setdefault(k, v)
            self._static[level] = None
            level += 1
        dead = self._deleted
        live = {k: v for k, v in items.items() if k not in dead}
        if live:
            keys = np.array(sorted(live))
            if level == len(self._static):
                self._static.append(None)
            self._static[level] = PGMIndex(epsilon=self.epsilon).build(
                keys, [live[k] for k in keys.tolist()])
        if dead:
            tombs = np.fromiter(dead, dtype=np.float64, count=len(dead))
            held = np.zeros(tombs.size, dtype=bool)
            for index in self._static:
                if index is not None:
                    held |= index._find_batch(tombs)[1]
                    index.stats.reset_counters()
            self._deleted = set(tombs[held].tolist())
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
        geometric level, so at most O(log n) sub-index lookups.  The
        newest level holding ``key`` answers, even with a ``None``."""
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
            pos = index._find(key)
            comparisons = index.stats.comparisons
            index.stats.reset_counters()
            if pos >= 0:
                self.stats.comparisons += comparisons
                return index._values[pos]
        return None

    def lookup_batch(self, keys) -> np.ndarray:
        """Base-plus-delta batch lookup, element-wise equal to scalar lookups.

        One probe per row against the delta (tombstones and buffer)
        answers the rows written since their last merge.  The rest go
        through :meth:`PGMIndex._locate_batch` once per static level,
        newest first: each level answers the rows it holds and passes
        the others on, so a key is read from the newest level holding it.
        """
        self._require_built()
        qs = np.asarray(keys, dtype=np.float64)
        if qs.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        out = np.full(qs.size, None, dtype=object)
        pending = self._probe_delta(qs, out)
        for index in self._static:
            if not pending.size:
                break
            if index is None:
                continue
            self.stats.nodes_visited += int(pending.size)
            pos, hit = index._find_batch(qs[pending])
            self.stats.comparisons += index.stats.comparisons
            index.stats.reset_counters()
            out[pending[hit]] = index._values_arr[pos[hit]]
            pending = pending[~hit]
        return out

    def _probe_delta(self, qs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Answer the rows the delta decides into ``out``; return the others.

        One hash probe per row, never an index walk: a buffered key reads
        its buffered value and a tombstoned key ``None`` (the two never
        share a key).
        """
        buffer, dead = self._buffer, self._deleted
        if not (buffer or dead):
            return np.arange(qs.size)
        get = buffer.get
        pending: list[int] = []
        for i, k in enumerate(qs.tolist()):
            value = get(k, _MISS)
            if value is not _MISS:
                out[i] = value
                self.stats.comparisons += 1
            elif k not in dead:
                pending.append(i)
        return np.array(pending, dtype=np.intp)

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
        dead = self._deleted
        return sorted((k, v) for k, v in merged.items() if k not in dead)

    def __len__(self) -> int:
        seen: set[float] = set(self._buffer)
        for index in self._static:
            if index is not None:
                seen.update(float(k) for k in index._keys)
        return len(seen - self._deleted)
