"""A miniature LSM-tree (memtable + sorted runs + compaction).

This is the substrate for BOURBON, the learned LSM index: writes land in
an in-memory memtable; when it fills, it is flushed to an immutable
sorted run; when too many runs accumulate, they are merged (size-tiered
compaction).  Deletes use tombstones.  Lookups search the memtable, then
runs from newest to oldest.

BOURBON replaces the per-run binary search with a learned model; the hook
:meth:`LSMTreeIndex._make_run_index` exists exactly for that subclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex

__all__ = ["LSMTreeIndex", "SortedRun", "TOMBSTONE"]


class _Tombstone:
    """Sentinel marking a deleted key inside a run."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<tombstone>"


#: Sentinel value recorded for deleted keys until compaction drops them.
TOMBSTONE = _Tombstone()


@dataclass
class SortedRun:
    """An immutable sorted run: key array + aligned values.

    Attributes:
        keys: sorted float64 key array.
        values: payloads aligned with ``keys`` (may contain tombstones).
        model: optional learned model attached by BOURBON; ``None`` means
            plain binary search.
    """

    keys: np.ndarray
    values: list[object]
    model: object | None = None

    def __len__(self) -> int:
        return int(self.keys.size)


class LSMTreeIndex(MutableOneDimIndex):
    """Size-tiered LSM-tree over float keys.

    Args:
        memtable_limit: number of entries before the memtable flushes.
        max_runs: number of runs that triggers a full merge compaction.
    """

    name = "lsm"

    def __init__(self, memtable_limit: int = 4096, max_runs: int = 6) -> None:
        super().__init__()
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        if max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        self.memtable_limit = memtable_limit
        self.max_runs = max_runs
        self._memtable: dict[float, object] = {}
        self._runs: list[SortedRun] = []  # oldest first

    # -- hooks -------------------------------------------------------------
    def _make_run_index(self, keys: np.ndarray) -> object | None:
        """Build an access-accelerating model for a new run (BOURBON hook)."""
        return None

    def _search_run(self, run: SortedRun, key: float) -> int:
        """Position of ``key`` in ``run.keys`` (first >= key)."""
        self.stats.comparisons += max(1, int(run.keys.size).bit_length())
        return int(np.searchsorted(run.keys, key, side="left"))

    # -- construction --------------------------------------------------------
    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "LSMTreeIndex":
        arr, vals = self._prepare(keys, values)
        self._memtable = {}
        self._runs = []
        self._built = True
        if arr.size:
            run = SortedRun(keys=arr.copy(), values=list(vals))
            run.model = self._make_run_index(run.keys)
            self._runs.append(run)
        self._refresh_size()
        return self

    def _refresh_size(self) -> None:
        total = sum(len(run) for run in self._runs) + len(self._memtable)
        self.stats.size_bytes = total * 16
        self.stats.extra["num_runs"] = len(self._runs)

    # -- writes ---------------------------------------------------------------
    def _insert(self, key: float, value: object | None) -> None:
        self._memtable[key] = value
        if len(self._memtable) >= self.memtable_limit:
            self._flush_memtable()

    def _delete(self, key: float) -> bool:
        present = self.lookup(key) is not None
        self._memtable[key] = TOMBSTONE
        if len(self._memtable) >= self.memtable_limit:
            self._flush_memtable()
        return present

    def _flush_memtable(self) -> None:
        if not self._memtable:
            return
        items = sorted(self._memtable.items())
        keys = np.array([k for k, _ in items], dtype=np.float64)
        values = [v for _, v in items]
        run = SortedRun(keys=keys, values=values)
        run.model = self._make_run_index(run.keys)
        self._runs.append(run)
        self._memtable = {}
        if len(self._runs) > self.max_runs:
            self._compact()
        self._refresh_size()

    def _compact(self) -> None:
        """Merge all runs into one, newest value wins, tombstones dropped.

        Compaction-bounded: runs once per ``max_runs`` flushes, so the
        O(n) merge amortizes across the inserts that filled those runs.
        """
        merged: dict[float, object] = {}
        for run in self._runs:  # oldest first; later runs overwrite
            for k, v in zip(run.keys, run.values):
                merged[float(k)] = v
        live = sorted((k, v) for k, v in merged.items() if v is not TOMBSTONE)
        keys = np.array([k for k, _ in live], dtype=np.float64)
        values = [v for _, v in live]
        run = SortedRun(keys=keys, values=values)
        run.model = self._make_run_index(run.keys)
        self._runs = [run] if keys.size else []
        self.stats.extra["compactions"] = self.stats.extra.get("compactions", 0) + 1

    def flush(self) -> None:
        """Force the memtable to diskless 'disk' (a new sorted run)."""
        self._require_built()
        self._flush_memtable()

    # -- reads -------------------------------------------------------------------
    def lookup(self, key: float) -> object | None:
        """Memtable probe, then per-run model-guided search, newest first.

        Compaction-bounded run list: ``_flush_memtable`` compacts once
        ``len(self._runs)`` exceeds ``max_runs``, so the loop visits at
        most ``max_runs + 1`` runs.
        """
        self._require_built()
        key = float(key)
        if key in self._memtable:
            value = self._memtable[key]
            return None if value is TOMBSTONE else value
        for run in reversed(self._runs):  # newest first
            self.stats.nodes_visited += 1
            idx = self._search_run(run, key)
            if idx < run.keys.size and run.keys[idx] == key:
                self.stats.keys_scanned += 1
                value = run.values[idx]
                return None if value is TOMBSTONE else value
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high:
            return []
        merged: dict[float, object] = {}
        for run in self._runs:  # oldest first so newer runs overwrite
            lo = int(np.searchsorted(run.keys, low, side="left"))
            hi = int(np.searchsorted(run.keys, high, side="right"))
            for i in range(lo, hi):
                merged[float(run.keys[i])] = run.values[i]
                self.stats.keys_scanned += 1
        for k, v in self._memtable.items():
            if low <= k <= high:
                merged[k] = v
        return sorted((k, v) for k, v in merged.items() if v is not TOMBSTONE)

    @property
    def num_runs(self) -> int:
        """Number of on-'disk' sorted runs."""
        return len(self._runs)

    def __len__(self) -> int:
        live: set[float] = set()
        dead: set[float] = set()
        for k, v in self._memtable.items():
            (dead if v is TOMBSTONE else live).add(k)
        for run in reversed(self._runs):
            for k, v in zip(run.keys, run.values):
                kf = float(k)
                if kf in live or kf in dead:
                    continue
                (dead if v is TOMBSTONE else live).add(kf)
        return len(live)
