"""Uniform grid index over d-dimensional points.

The simplest spatial partitioning: a fixed ``cells_per_dim^d`` lattice of
buckets.  It is both a baseline and the traditional component inside the
learned grid hybrids (Flood learns the per-dimension resolutions that
this structure takes as constants).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableMultiDimIndex, as_object_array
from repro.core.state import IndexState, export_index_state

__all__ = ["GridIndex"]


class GridIndex(MutableMultiDimIndex):
    """Fixed uniform grid with per-cell point buckets.

    Args:
        cells_per_dim: lattice resolution in every dimension (default 16).
    """

    name = "grid"

    def __init__(self, cells_per_dim: int = 16) -> None:
        super().__init__()
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be >= 1")
        self.cells_per_dim = cells_per_dim
        self._cells: dict[tuple[int, ...], list[tuple[np.ndarray, object]]] = {}
        #: Per-cell stacked (points, values) arrays for the batch paths;
        #: entries are dropped when the underlying bucket mutates.
        self._stacked: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._lo = np.zeros(1)
        self._hi = np.ones(1)
        self._size = 0

    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "GridIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._cells = {}
        self._stacked = {}
        self._size = int(pts.shape[0])
        self._built = True
        if pts.shape[0] == 0:
            return self
        self._lo = pts.min(axis=0)
        self._hi = pts.max(axis=0)
        span = self._hi - self._lo
        span[span == 0] = 1.0
        self._hi = self._lo + span
        self._extent = float(span.max())
        for i in range(pts.shape[0]):
            self._cells.setdefault(self._cell_of(pts[i]), []).append((pts[i].copy(), vals[i]))
        for cid, bucket in self._cells.items():  # warm the batch-path cache
            self._bucket_arrays(cid, bucket)
        self.stats.size_bytes = self._size * (8 * self.dims + 16) + len(self._cells) * 64
        self.stats.extra["cells"] = len(self._cells)
        return self

    # -- state export/restore ----------------------------------------------
    def export_state(self) -> IndexState:
        """Pack the per-cell buckets into CSR columns for export.

        The live structure holds one small ndarray per point plus one
        stacked pair per cell — roughly ``n`` distinct arrays, which
        the artifact store would lay out (and later view) as ``n``
        separate blocks.  Packing into a single ``(n, d)`` matrix plus
        per-cell counts keeps the artifact at a handful of blocks and
        makes the restore a pure slicing pass.
        """
        self._require_built()
        cells = self._cells
        stacked = self._stacked
        cids: list[tuple[int, ...]] = []
        counts: list[int] = []
        rows: list[np.ndarray] = []
        values: list[object] = []
        for cid, bucket in cells.items():
            cids.append(cid)
            counts.append(len(bucket))
            for p, v in bucket:
                rows.append(p)
                values.append(v)
        packed = (np.vstack(rows) if rows
                  else np.empty((0, max(self.dims, 1)), dtype=np.float64))
        try:
            self._cells = {}
            self._stacked = {}
            self._packed = (cids, np.asarray(counts, dtype=np.int64),
                            packed, values)
            return export_index_state(self)
        finally:
            del self._packed
            self._cells = cells
            self._stacked = stacked

    @classmethod
    def from_state(cls, state: IndexState) -> "GridIndex":
        """Unpack the CSR columns back into per-cell buckets."""
        instance = super().from_state(state)
        assert isinstance(instance, GridIndex)
        cids, counts, packed, values = instance.__dict__.pop("_packed")
        cells: dict[tuple[int, ...], list[tuple[np.ndarray, object]]] = {}
        start = 0
        for cid, count in zip(cids, counts):
            end = start + int(count)
            cells[tuple(int(c) for c in cid)] = [
                (np.array(packed[j], dtype=np.float64), values[j])
                for j in range(start, end)
            ]
            start = end
        instance._cells = cells
        instance._stacked = {}
        return instance

    def _cell_of(self, p: np.ndarray) -> tuple[int, ...]:
        frac = (p - self._lo) / (self._hi - self._lo)
        return tuple(int(i) for i in self._clamped_cells(frac))

    def _clamped_cells(self, frac: np.ndarray) -> np.ndarray:
        """Cell indices of data-extent fractions, clamped to the grid before
        the integer cast: +-inf land on the edge cells and NaN on cell 0
        (``fmax`` drops a NaN), so no cast sees a non-finite value."""
        cells = np.fmin(np.fmax(frac * self.cells_per_dim, 0.0), self.cells_per_dim - 1)
        return cells.astype(int)

    def point_query(self, point: Sequence[float]) -> object | None:
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        cell = self._cells.get(self._cell_of(q))
        self.stats.nodes_visited += 1
        if not cell:
            return None
        for p, v in cell:
            self.stats.keys_scanned += 1
            if np.array_equal(p, q):
                return v
        return None

    def _bucket_arrays(self, cid: tuple[int, ...],
                       bucket: list[tuple[np.ndarray, object]]) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (points, values) arrays of one cell, cached per cell."""
        cached = self._stacked.get(cid)
        if cached is None:
            cached = (
                np.vstack([p for p, _ in bucket]),
                as_object_array([v for _, v in bucket]),
            )
            self._stacked[cid] = cached
        return cached

    def point_query_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized batch point queries (element-wise equal to scalar).

        Routes all queries to their cells with one clipped-lattice
        computation, groups them per cell, and matches each group against
        the stacked cell bucket with a single (chunked) equality kernel —
        the first matching bucket entry wins, exactly like the scalar
        scan order.
        """
        self._require_built()
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must have shape (m, d)")
        m = pts.shape[0]
        out = np.full(m, None, dtype=object)
        if m == 0 or not self._cells:
            return out
        ids = self._clamped_cells((pts - self._lo) / (self._hi - self._lo))
        flat = np.zeros(m, dtype=np.int64)
        for j in range(ids.shape[1]):
            flat = flat * self.cells_per_dim + ids[:, j]
        order = np.argsort(flat, kind="stable")
        sf = flat[order]
        starts = np.concatenate(([0], np.nonzero(np.diff(sf))[0] + 1, [m]))
        self.stats.nodes_visited += m
        for s, e in zip(starts[:-1], starts[1:]):
            gidx = order[s:e]
            cid = tuple(int(c) for c in ids[gidx[0]])
            bucket = self._cells.get(cid)
            if not bucket:
                continue
            bucket_pts, bucket_vals = self._bucket_arrays(cid, bucket)
            b = bucket_pts.shape[0]
            self.stats.keys_scanned += b * gidx.size
            chunk = max(1, 4_000_000 // b)
            for c0 in range(0, gidx.size, chunk):
                cidx = gidx[c0:c0 + chunk]
                eq = np.all(bucket_pts[None, :, :] == pts[cidx, None, :], axis=2)
                hit = eq.any(axis=1)
                out[cidx[hit]] = bucket_vals[eq.argmax(axis=1)[hit]]
        return out

    def range_query_batch(self, lows: np.ndarray, highs: np.ndarray) -> list[list[tuple[tuple[float, ...], object]]]:
        """Vectorized batch range queries (element-wise equal to scalar).

        Box corners are routed to cells vectorially; each visited bucket
        is stacked once per batch and filtered with a numpy mask instead
        of a per-point Python loop.
        """
        self._require_built()
        lo_arr = np.asarray(lows, dtype=np.float64)
        hi_arr = np.asarray(highs, dtype=np.float64)
        if lo_arr.ndim != 2 or hi_arr.shape != lo_arr.shape:
            raise ValueError("lows/highs must both have shape (m, d)")
        m = lo_arr.shape[0]
        results: list[list[tuple[tuple[float, ...], object]]] = [[] for _ in range(m)]
        if m == 0 or self._size == 0:
            return results
        empty = np.any(hi_arr < lo_arr, axis=1)
        for i in range(m):
            if empty[i]:
                continue
            lo, hi = lo_arr[i], hi_arr[i]
            lo_cell = self._cell_of(np.maximum(lo, self._lo))
            hi_cell = self._cell_of(np.minimum(hi, self._hi))
            out_i = results[i]
            for cell_idx in itertools.product(*(range(a, b + 1) for a, b in zip(lo_cell, hi_cell))):
                bucket = self._cells.get(cell_idx)
                self.stats.nodes_visited += 1
                if not bucket:
                    continue
                bucket_pts, bucket_vals = self._bucket_arrays(cell_idx, bucket)
                self.stats.keys_scanned += bucket_pts.shape[0]
                mask = np.all(bucket_pts >= lo, axis=1) & np.all(bucket_pts <= hi, axis=1)
                for j in np.nonzero(mask)[0]:
                    out_i.append((tuple(float(c) for c in bucket_pts[j]), bucket_vals[j]))
        return results

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        if self._size == 0:
            return []
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        if np.any(hi < lo):
            return []
        lo_cell = self._cell_of(np.maximum(lo, self._lo))
        hi_cell = self._cell_of(np.minimum(hi, self._hi))
        ranges = [range(lo_cell[d], hi_cell[d] + 1) for d in range(self.dims)]
        out: list[tuple[tuple[float, ...], object]] = []
        for cell_idx in itertools.product(*ranges):
            bucket = self._cells.get(cell_idx)
            self.stats.nodes_visited += 1
            if not bucket:
                continue
            for p, v in bucket:
                self.stats.keys_scanned += 1
                if np.all(p >= lo) and np.all(p <= hi):
                    out.append((tuple(float(c) for c in p), v))
        return out

    def knn_query(self, point: Sequence[float], k: int) -> list[tuple[tuple[float, ...], object]]:
        """Expanding-ring kNN over grid cells around the query."""
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        if k <= 0 or self._size == 0 or not np.isfinite(q).all():
            return []
        centre = self._cell_of(np.clip(q, self._lo, self._hi))
        cell_span = (self._hi - self._lo) / self.cells_per_dim
        best: list[tuple[float, int, tuple, object]] = []
        counter = itertools.count()
        ring = 0
        max_ring = self.cells_per_dim
        while ring <= max_ring:
            found_any = False
            for cell_idx in self._ring_cells(centre, ring):
                bucket = self._cells.get(cell_idx)
                if not bucket:
                    continue
                found_any = True
                for p, v in bucket:
                    d = float(np.sum((p - q) ** 2))
                    entry = (-d, next(counter), tuple(float(c) for c in p), v)
                    if len(best) < k:
                        heapq.heappush(best, entry)
                    elif d < -best[0][0]:
                        heapq.heapreplace(best, entry)
            if len(best) >= k:
                # Stop once the ring distance exceeds the kth best distance.
                ring_dist = max(ring - 1, 0) * float(cell_span.min())
                if ring_dist * ring_dist > -best[0][0]:
                    break
            ring += 1
            if not found_any and len(best) >= k:
                break
        ordered = sorted(best, key=lambda h: -h[0])
        return [(p, v) for _, _, p, v in ordered]

    def _ring_cells(self, centre: tuple[int, ...], ring: int):
        """Yield cell indices at Chebyshev distance ``ring`` from centre."""
        rng = range(-ring, ring + 1)
        for offset in itertools.product(rng, repeat=self.dims):
            if max(abs(o) for o in offset) != ring:
                continue
            idx = tuple(centre[d] + offset[d] for d in range(self.dims))
            if all(0 <= idx[d] < self.cells_per_dim for d in range(self.dims)):
                yield idx

    def insert(self, point: Sequence[float], value: object | None = None) -> None:
        self._require_built()
        p = np.asarray(point, dtype=np.float64)
        if self._size == 0 and not self._cells:
            self.dims = int(p.size)
            self._lo = p - 0.5
            self._hi = p + 0.5
            self._extent = 1.0
        cid = self._cell_of(np.clip(p, self._lo, self._hi))
        self._stacked.pop(cid, None)
        bucket = self._cells.setdefault(cid, [])
        for i, (existing, _) in enumerate(bucket):
            if np.array_equal(existing, p):
                bucket[i] = (p.copy(), value)
                return
        bucket.append((p.copy(), value))
        self._size += 1

    def delete(self, point: Sequence[float]) -> bool:
        self._require_built()
        p = np.asarray(point, dtype=np.float64)
        cid = self._cell_of(np.clip(p, self._lo, self._hi))
        bucket = self._cells.get(cid)
        if not bucket:
            return False
        for i, (existing, _) in enumerate(bucket):
            if np.array_equal(existing, p):
                del bucket[i]
                self._stacked.pop(cid, None)
                self._size -= 1
                return True
        return False

    def __len__(self) -> int:
        return self._size
