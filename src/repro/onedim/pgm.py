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
from repro.core.state import IndexState, export_index_state
from repro.models.pla import LearnedColumn
from repro.onedim._search import scan_range

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
        #: columns[0] is the leaf model over the data; columns[i > 0] model
        #: the anchor keys of the column one level below.
        self._columns: list[LearnedColumn] = []
        self._values_arr = np.empty(0, dtype=object)

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "PGMIndex":
        self._keys, self._values = self._prepare(keys, values)
        self._built = True
        self._columns = []
        self._values_arr = as_object_array(self._values)
        if self._keys.size == 0:
            return self
        column = LearnedColumn(self._keys, self.epsilon)
        self._columns.append(column)
        while len(column) > 1:
            column = LearnedColumn(column.keys, self.epsilon_recursive)
            self._columns.append(column)
        self.stats.size_bytes = sum(column.size_bytes for column in self._columns)
        self.stats.extra["levels"] = len(self._columns)
        self.stats.extra["segments"] = len(self._columns[0])
        return self

    def _level_keys(self, level: int) -> np.ndarray:
        """The sorted keys level ``level`` models: the data at the leaves,
        the anchor keys of the level below above them."""
        return self._keys if level == 0 else self._columns[level - 1].keys

    # -- queries ------------------------------------------------------------
    def _locate(self, key: float) -> int:
        """Lower-bound position of ``key`` in the data array.

        Level-bounded: the loop walks the recursive-model hierarchy
        (O(log n) levels), doing one epsilon-bounded search per level.
        The position found at a level is ``key``'s lower bound among the
        anchor keys of the level below, so it names the segment that
        covers the start of ``key``'s run there (:meth:`_segment_containing`).
        """
        seg = 0
        for level in range(len(self._columns) - 1, -1, -1):
            self.stats.nodes_visited += 1
            pos = self._columns[level].search(self._level_keys(level), seg, key, self.stats)
            if level == 0:
                return pos
            seg = self._segment_containing(level - 1, pos, key)
        return 0  # pragma: no cover - loop always returns at level 0

    def _segment_containing(self, level: int, pos: int, key: float) -> int:
        """The segment at ``level`` holding the start of ``key``'s run,
        from ``key``'s lower bound ``pos`` among that level's anchor keys.

        That is the anchor at ``pos`` when it equals ``key`` and starts
        the run, else the segment before it.
        """
        column = self._columns[level]
        idx = min(pos, len(column) - 1)
        if idx > 0 and (column.key_list[idx] > key or (
                column.key_list[idx] == key
                and self._level_keys(level)[column.firsts[idx] - 1] == key)):
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

        Walks the levels top-down exactly like the scalar path, carrying
        an int64 array of per-query segment indexes instead of a single
        one (the top level is one segment, so it needs no gathers), and
        resolving each to the segment below as :meth:`_segment_containing`
        does.
        """
        m = qs.size
        seg: np.ndarray | int = 0
        for level in range(len(self._columns) - 1, -1, -1):
            self.stats.nodes_visited += m
            pos = self._columns[level].search_batch(self._level_keys(level), seg, qs, self.stats)
            if level == 0:
                return pos
            below = self._columns[level - 1]
            seg = np.minimum(pos, len(below) - 1)
            anchor = below.keys[seg]
            back = anchor > qs
            tied = anchor == qs
            if tied.any():
                keys = self._level_keys(level - 1)
                back |= tied & (keys[np.maximum(below.firsts[seg] - 1, 0)] == qs)
            seg -= back
            np.maximum(seg, 0, out=seg)
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
        if not low <= high or self._keys.size == 0:
            return []
        start = self._locate(float(low))
        return scan_range(self._keys, self._values, start, high, self.stats)

    @property
    def num_segments(self) -> int:
        """Leaf-level segment count (the size driver)."""
        return len(self._columns[0]) if self._columns else 0

    @property
    def num_levels(self) -> int:
        """Number of PLA levels including the leaf level."""
        return len(self._columns)

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

    # -- built-state export ------------------------------------------------
    def export_state(self) -> IndexState:
        """Export each static level as its attribute dict, which the
        generic exporter descends, so the levels' key columns travel as
        shared arrays rather than inside the pickled residue."""
        self._require_built()
        static = self._static
        self._static = [None if index is None else vars(index) for index in static]
        try:
            return export_index_state(self)
        finally:
            self._static = static

    @classmethod
    def from_state(cls, state: IndexState) -> "DynamicPGMIndex":
        """Rebuild the static levels from their exported attribute dicts."""
        instance = super().from_state(state)
        assert isinstance(instance, DynamicPGMIndex)
        for i, attrs in enumerate(instance._static):
            if attrs is not None:
                index = instance._static[i] = PGMIndex.__new__(PGMIndex)
                index.__dict__.update(attrs)
        return instance

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
        if not low <= high:
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
