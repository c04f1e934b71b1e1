"""LISA — Li et al., 2020: a learned index structure for spatial data.

LISA's pipeline, reproduced here:

1. **Grid mapping function** ``M``: the space is cut into grid cells via
   per-dimension equi-depth boundaries; a point maps to the scalar
   ``cell_rank + fractional offset inside the cell``, a monotone
   lexicographic measure of the space.
2. **Shard prediction**: the sorted mapped values are partitioned into
   shards of bounded size (LISA trains a monotone piecewise-linear shard
   function; rank partitioning of the sorted mapped values is its exact
   fixed point).
3. **Per-shard storage** with local search and delta-style inserts —
   LISA is the survey's representative *mutable pure / projected /
   delta-buffer* multi-dimensional index.

Range queries enumerate the grid cells intersecting the box, convert
contiguous cell-rank runs into mapped-value intervals, and scan only the
shards those intervals touch.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableMultiDimIndex, as_object_array

__all__ = ["LISAIndex"]


class _Shard:
    """One shard: parallel sorted lists over the mapped value."""

    __slots__ = ("mapped", "points", "values", "_arrays")

    def __init__(self) -> None:
        self.mapped: list[float] = []
        self.points: list[np.ndarray] = []
        self.values: list[object] = []
        #: Cached (mapped, points, values) ndarray views for the batch
        #: path; dropped on every mutation.
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (
                np.asarray(self.mapped, dtype=np.float64),
                np.vstack(self.points),
                as_object_array(self.values),
            )
        return self._arrays

    def invalidate(self) -> None:
        self._arrays = None

    def __len__(self) -> int:
        return len(self.mapped)


class LISAIndex(MutableMultiDimIndex):
    """LISA: grid mapping + learned shards.

    Args:
        cells_per_dim: grid resolution of the mapping function.
        shard_size: target points per shard.
    """

    name = "lisa"
    #: Rows from which ``point_query_batch`` runs the kernel: its per-shard
    #: group loop costs ~13 µs a row against ~14 µs for a scalar query, so
    #: the curve is flat near the crossover.  At 10⁵ 2-d points the kernel
    #: loses by 7-12% at 128 rows, ties within 3% at 192 and wins by 3-6%
    #: at 256 on all three E18 datasets: 192 holds to one row step
    #: (E18's crossover arm; DESIGN.md "Small batches").
    batch_crossover = 192

    def __init__(self, cells_per_dim: int = 16, shard_size: int = 256) -> None:
        super().__init__()
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be >= 1")
        if shard_size < 8:
            raise ValueError("shard_size must be >= 8")
        self.cells_per_dim = cells_per_dim
        self.shard_size = shard_size
        self._boundaries: list[np.ndarray] = []
        self._lo = np.zeros(1)
        self._hi = np.ones(1)
        self._shards: list[_Shard] = []
        self._shard_starts: list[float] = []
        self._size = 0

    # -- the mapping function M ------------------------------------------------
    def _cell_coords(self, p: np.ndarray) -> tuple[int, ...]:
        return tuple(
            int(np.searchsorted(self._boundaries[d], p[d], side="right"))
            for d in range(self.dims)
        )

    def _cell_rank(self, coords: tuple[int, ...]) -> int:
        rank = 0
        for d in range(self.dims):
            rank = rank * self.cells_per_dim + min(coords[d], self.cells_per_dim - 1)
        return rank

    def _mapped(self, p: np.ndarray) -> float:
        coords = self._cell_coords(p)
        rank = self._cell_rank(coords)
        # Fractional offset inside the cell along the last dimension,
        # giving a total order within each cell.
        d = self.dims - 1
        c = min(coords[d], self.cells_per_dim - 1)
        lo = self._boundaries[d][c - 1] if c > 0 else self._lo[d]
        hi = self._boundaries[d][c] if c < self._boundaries[d].size else self._hi[d]
        span = float(hi - lo) or 1.0
        frac = float(np.clip((p[d] - lo) / span, 0.0, 0.999999))
        return rank + frac

    def _mapped_batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_mapped` over an ``(m, d)`` point array.

        Performs the identical float64 operations in the identical order,
        so every mapped value is bit-equal to the scalar path (the batch
        queries compare mapped values with the same tolerances).
        """
        m = pts.shape[0]
        coords = np.empty((m, self.dims), dtype=np.int64)
        for d in range(self.dims):
            coords[:, d] = np.searchsorted(self._boundaries[d], pts[:, d], side="right")
        rank = np.zeros(m, dtype=np.int64)
        for d in range(self.dims):
            rank = rank * self.cells_per_dim + np.minimum(coords[:, d], self.cells_per_dim - 1)
        d = self.dims - 1
        bounds = self._boundaries[d]
        c = np.minimum(coords[:, d], self.cells_per_dim - 1)
        if bounds.size == 0:  # cells_per_dim == 1: one cell spanning [lo, hi]
            lo = np.full(m, self._lo[d])
            hi = np.full(m, self._hi[d])
        else:
            lo = np.where(c > 0, bounds[np.clip(c - 1, 0, bounds.size - 1)], self._lo[d])
            hi = np.where(c < bounds.size, bounds[np.clip(c, 0, bounds.size - 1)], self._hi[d])
        span = hi - lo
        span[span == 0] = 1.0
        frac = np.clip((pts[:, d] - lo) / span, 0.0, 0.999999)
        return rank + frac

    # -- construction -----------------------------------------------------------
    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "LISAIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._size = int(pts.shape[0])
        self._built = True
        self._shards = []
        self._shard_starts = []
        if pts.shape[0] == 0:
            return self
        self._lo = pts.min(axis=0)
        self._hi = pts.max(axis=0)
        self._extent = float(np.max(self._hi - self._lo)) or 1.0
        probs = np.linspace(0.0, 1.0, self.cells_per_dim + 1)[1:-1]
        self._boundaries = [np.quantile(pts[:, d], probs) for d in range(self.dims)]

        mapped = np.array([self._mapped(pts[i]) for i in range(pts.shape[0])])
        order = np.argsort(mapped, kind="mergesort")
        for start in range(0, order.size, self.shard_size):
            chunk = order[start:start + self.shard_size]
            shard = _Shard()
            shard.mapped = [float(mapped[i]) for i in chunk]
            shard.points = [pts[i].copy() for i in chunk]
            shard.values = [vals[i] for i in chunk]
            shard.arrays()  # warm the batch-path cache
            self._shards.append(shard)
            self._shard_starts.append(shard.mapped[0])
        self._refresh_size()
        return self

    def _refresh_size(self) -> None:
        self.stats.size_bytes = (
            sum(b.size * 8 for b in self._boundaries)
            + sum(len(s) * (8 + 8 * max(self.dims, 1)) + 32 for s in self._shards)
        )
        self.stats.extra["shards"] = len(self._shards)

    def _shard_for(self, m: float) -> int:
        """The last shard whose start is strictly below ``m`` (0 if none).

        A run of mapped values ``>= m`` can start in that shard but in no
        earlier one: every shard's start bounds the shard before it.
        """
        idx = bisect.bisect_left(self._shard_starts, m) - 1
        self.stats.comparisons += max(1, len(self._shard_starts).bit_length())
        return max(idx, 0)

    def _find(self, q: np.ndarray, m: float, si: int) -> tuple[int, int] | None:
        """``(shard, row)`` of the stored point ``q`` whose mapped value is
        ``m``, scanning from shard ``si`` (duplicate-bounded).

        The candidates are the run of mapped values within ``m +- 1e-9``;
        the scan continues into the following shards while the run does.
        """
        lo, hi = m - 1e-9, m + 1e-9
        for shard_idx in range(si, len(self._shards)):
            mapped = self._shards[shard_idx].mapped
            if mapped and mapped[0] > hi:
                break
            self.stats.nodes_visited += 1
            i = bisect.bisect_left(mapped, lo)
            while i < len(mapped) and mapped[i] <= hi:
                self.stats.keys_scanned += 1
                if np.array_equal(self._shards[shard_idx].points[i], q):
                    return shard_idx, i
                i += 1
            if i < len(mapped):
                break
        return None

    # -- queries -------------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        """Mapped-value shard routing plus a duplicate-bounded scan of
        the equal-mapped-value run, from the shard holding its start."""
        self._require_built()
        if not self._shards:
            return None
        q = np.asarray(point, dtype=np.float64)
        m = self._mapped(q)
        found = self._find(q, m, self._shard_for(m - 1e-9))
        return None if found is None else self._shards[found[0]].values[found[1]]

    def _point_query_batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized batch point queries (element-wise equal to scalar).

        Maps the whole batch with :meth:`_mapped_batch`, routes every
        query to the shard holding the start of its candidate window
        (``mapped`` within ``+-1e-9``) with one ``searchsorted`` over the
        shard starts, then resolves each shard group with a masked
        equality kernel over the shard's stacked arrays; ties and windows
        that run past their shard's end take the scalar :meth:`_find`.
        """
        m = pts.shape[0]
        out = np.full(m, None, dtype=object)
        if not self._shards:
            return out
        mapped = self._mapped_batch(pts)
        starts = np.asarray(self._shard_starts)
        sidx = np.maximum(np.searchsorted(starts, mapped - 1e-9, side="left") - 1, 0)
        self.stats.comparisons += m * max(1, len(self._shard_starts).bit_length())
        self.stats.nodes_visited += m
        order = np.argsort(sidx, kind="stable")
        ss = sidx[order]
        bounds = np.concatenate(([0], np.nonzero(np.diff(ss))[0] + 1, [m]))
        for s, e in zip(bounds[:-1], bounds[1:]):
            gidx = order[s:e]
            si = int(sidx[gidx[0]])
            shard = self._shards[si]
            rest = gidx
            if shard.mapped:
                shard_mapped, shard_pts, shard_vals = shard.arrays()
                qm = mapped[gidx]
                w_lo = np.searchsorted(shard_mapped, qm - 1e-9, side="left")
                w_hi = np.searchsorted(shard_mapped, qm + 1e-9, side="right")
                has = w_lo < w_hi
                cand = np.minimum(w_lo, shard_mapped.size - 1)
                first = has & np.all(shard_pts[cand] == pts[gidx], axis=1)
                self.stats.keys_scanned += int(has.sum())
                out[gidx[first]] = shard_vals[cand[first]]
                # Mapped-value ties, and windows that run past the shard's
                # end, take the scalar scan.
                rest = gidx[~first & (has | (w_hi == shard_mapped.size))]
            for t in rest:
                found = self._find(pts[t], float(mapped[t]), si)
                if found is not None:
                    out[t] = self._shards[found[0]].values[found[1]]
        return out

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        if not self._shards:
            return []
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        if np.any(hi < lo):
            return []
        # No clamping to the build-time bounding box: inserted points may
        # live outside it, and the quantile cell mapping handles
        # out-of-range coordinates by saturating to the edge cells.
        lo_coords = self._cell_coords(lo)
        hi_coords = self._cell_coords(hi)
        # Contiguous runs: the last dimension's cell interval is contiguous
        # in rank space for each fixed prefix of the other dimensions.
        prefix_ranges = [
            range(lo_coords[d], min(hi_coords[d], self.cells_per_dim - 1) + 1)
            for d in range(self.dims - 1)
        ]
        d_last = self.dims - 1
        last_lo = lo_coords[d_last]
        last_hi = min(hi_coords[d_last], self.cells_per_dim - 1)
        out: list[tuple[tuple[float, ...], object]] = []
        for prefix in itertools.product(*prefix_ranges):
            start_rank = self._cell_rank(prefix + (last_lo,))
            end_rank = self._cell_rank(prefix + (last_hi,))
            self._scan_mapped_interval(float(start_rank), float(end_rank + 1), lo, hi, out)
        return out

    def _scan_mapped_interval(self, m_lo: float, m_hi: float, lo: np.ndarray,
                              hi: np.ndarray, out: list) -> None:
        si = self._shard_for(m_lo)
        for shard_idx in range(si, len(self._shards)):
            shard = self._shards[shard_idx]
            if shard.mapped and shard.mapped[0] >= m_hi:
                break
            self.stats.nodes_visited += 1
            i = bisect.bisect_left(shard.mapped, m_lo)
            while i < len(shard.mapped) and shard.mapped[i] < m_hi:
                p = shard.points[i]
                self.stats.keys_scanned += 1
                if np.all(p >= lo) and np.all(p <= hi):
                    out.append((tuple(float(c) for c in p), shard.values[i]))
                i += 1

    # -- updates -------------------------------------------------------------------
    def insert(self, point: Sequence[float], value: object | None = None) -> None:
        """Shard-routed sorted insert; the equal-mapped-value replace scan
        is duplicate-bounded like :meth:`point_query`."""
        self._require_built()
        p = np.asarray(point, dtype=np.float64)
        if not self._shards:
            self.dims = int(p.size)
            self._lo = p - 0.5
            self._hi = p + 0.5
            self._extent = 1.0
            probs = np.linspace(0.0, 1.0, self.cells_per_dim + 1)[1:-1]
            self._boundaries = [
                np.full(probs.size, float(p[d])) for d in range(self.dims)
            ]
            shard = _Shard()
            self._shards = [shard]
            self._shard_starts = [0.0]
        m = self._mapped(p)
        found = self._find(p, m, self._shard_for(m - 1e-9))
        if found is not None:
            shard = self._shards[found[0]]
            shard.values[found[1]] = value
            shard.invalidate()
            return
        shard_idx = self._shard_for(m)
        shard = self._shards[shard_idx]
        i = bisect.bisect_left(shard.mapped, m)
        shard.mapped.insert(i, m)
        shard.points.insert(i, p.copy())
        shard.values.insert(i, value)
        shard.invalidate()
        self._size += 1
        if len(shard) > 2 * self.shard_size:
            self._split_shard(shard_idx)
        self._refresh_size()

    def _split_shard(self, shard_idx: int) -> None:
        shard = self._shards[shard_idx]
        mid = len(shard) // 2
        right = _Shard()
        right.mapped = shard.mapped[mid:]
        right.points = shard.points[mid:]
        right.values = shard.values[mid:]
        shard.mapped = shard.mapped[:mid]
        shard.points = shard.points[:mid]
        shard.values = shard.values[:mid]
        shard.invalidate()
        self._shards.insert(shard_idx + 1, right)
        # Every start stays a separator; an emptied shard keeps its own.
        self._shard_starts.insert(shard_idx + 1, right.mapped[0])
        self.stats.extra["splits"] = self.stats.extra.get("splits", 0) + 1

    def delete(self, point: Sequence[float]) -> bool:
        self._require_built()
        if not self._shards:
            return False
        p = np.asarray(point, dtype=np.float64)
        m = self._mapped(p)
        found = self._find(p, m, self._shard_for(m - 1e-9))
        if found is None:
            return False
        shard = self._shards[found[0]]
        del shard.mapped[found[1]]
        del shard.points[found[1]]
        del shard.values[found[1]]
        shard.invalidate()
        self._size -= 1
        return True

    @property
    def num_shards(self) -> int:
        """Current shard count."""
        return len(self._shards)

    def __len__(self) -> int:
        return self._size
