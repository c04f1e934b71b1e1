"""Flood — Nathan et al., 2020: learning a multi-dimensional grid layout.

Flood lays the data out in a grid over ``d - 1`` dimensions and sorts by
the remaining *sort dimension* within each cell.  Its learning has two
parts, both reproduced here:

* **Flattening**: per-dimension column boundaries come from the empirical
  CDF (equi-depth quantiles), so skewed dimensions still spread evenly
  over columns.
* **Layout tuning**: the per-dimension column counts (and choice of sort
  dimension) are selected against a sample query workload with a simple
  cost model (cells visited + points scanned) — see :meth:`FloodIndex.tune`.

An untuned uniform grid (``tune=False``, fixed columns) serves as the
ablation in benchmark E10.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.core.interfaces import MultiDimIndex, as_object_array, as_pairs, box_mask
from repro.multidim._cells import cell_runs

__all__ = ["FloodIndex"]

_NO_VALUES = np.empty(0, dtype=object)


class FloodIndex(MultiDimIndex):
    """Learned grid index with per-cell sorted runs.

    Args:
        columns_per_dim: initial column count for every grid dimension
            (all dims except the sort dimension).
        sort_dim: index of the in-cell sort dimension (default: last).
    """

    name = "flood"
    #: Rows from which ``point_query_batch`` runs the kernel: its per-cell
    #: group loop costs about what a scalar query does until cells repeat
    #: within a batch.  At 10⁵ 2-d points it is 7-12% slower at 32 rows
    #: and 21-23% faster at 48 on all three E18 datasets (E18's crossover
    #: arm; DESIGN.md "Small batches").
    batch_crossover = 48

    def __init__(self, columns_per_dim: int = 16, sort_dim: int | None = None) -> None:
        super().__init__()
        if columns_per_dim < 1:
            raise ValueError("columns_per_dim must be >= 1")
        self.columns_per_dim = columns_per_dim
        self.sort_dim = sort_dim
        self._grid_dims: list[int] = []
        self._columns: list[int] = []
        self._boundaries: list[np.ndarray] = []
        self._cells: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, list[object]]] = {}
        self._points = np.empty((0, 2))
        self._values: list[object] = []

    # -- construction -------------------------------------------------------
    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "FloodIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._points = pts
        self._values = vals
        self._built = True
        if pts.shape[0] == 0:
            self._cells = {}
            return self
        self._extent = float(np.max(pts.max(axis=0) - pts.min(axis=0))) or 1.0
        if self.sort_dim is None:
            self.sort_dim = self.dims - 1
        self._grid_dims = [d for d in range(self.dims) if d != self.sort_dim]
        self._columns = [self.columns_per_dim] * len(self._grid_dims)
        self._layout()
        return self

    def _layout(self) -> None:
        """(Re)build cells from the current column configuration."""
        pts = self._points
        self._boundaries = []
        for d, cols in zip(self._grid_dims, self._columns):
            # Flattening: equi-depth column boundaries from the CDF.
            probs = np.linspace(0.0, 1.0, cols + 1)[1:-1]
            self._boundaries.append(np.quantile(pts[:, d], probs))
        cell_ids = self._cell_ids(pts)
        order = np.lexsort((pts[:, self.sort_dim],) + tuple(cell_ids[:, ::-1].T))
        sorted_pts = pts[order]
        sorted_vals = as_object_array(self._values)[order]
        self._cells = {}
        for cid, start, end in cell_runs(cell_ids[order]):
            cell_pts = sorted_pts[start:end]
            self._cells[cid] = (
                cell_pts[:, self.sort_dim].copy(),
                cell_pts,
                sorted_vals[start:end],
            )
        self.stats.size_bytes = (
            sum(b.size * 8 for b in self._boundaries)
            + len(self._cells) * 48
            + self._points.shape[0] * 8  # sort-key column copies
        )
        self.stats.extra["cells"] = len(self._cells)
        self.stats.extra["columns"] = list(self._columns)

    def _cell_ids(self, pts: np.ndarray) -> np.ndarray:
        ids = np.zeros((pts.shape[0], len(self._grid_dims)), dtype=np.int64)
        for j, (d, bounds) in enumerate(zip(self._grid_dims, self._boundaries)):
            ids[:, j] = np.searchsorted(bounds, pts[:, d], side="right")
        return ids

    def _cell_of(self, point: np.ndarray) -> tuple[int, ...]:
        return tuple(
            int(np.searchsorted(bounds, point[d], side="right"))
            for d, bounds in zip(self._grid_dims, self._boundaries)
        )

    # -- workload-driven tuning -----------------------------------------------
    def tune(self, workload: list[tuple[np.ndarray, np.ndarray]],
             candidates: Sequence[int] = (4, 8, 16, 32, 64)) -> "FloodIndex":
        """Choose per-dimension column counts against a query workload.

        Args:
            workload: sample ``(low, high)`` boxes.
            candidates: column counts to consider per grid dimension.

        Greedy coordinate descent over the cost model: for each grid
        dimension in turn, pick the candidate count minimising the
        estimated query cost, holding the others fixed.
        """
        self._require_built()
        if not workload or self._points.shape[0] == 0:
            return self
        for j in range(len(self._grid_dims)):
            best_cost = None
            best_cols = self._columns[j]
            for cols in candidates:
                self._columns[j] = cols
                self._layout()
                cost = self._workload_cost(workload)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_cols = cols
            self._columns[j] = best_cols
            self._layout()
        self.stats.extra["tuned"] = True
        return self

    def _workload_cost(self, workload: list[tuple[np.ndarray, np.ndarray]]) -> float:
        """Cost model: cells visited + points scanned per query."""
        cell_cost = 20.0  # fixed overhead per visited cell
        total = 0.0
        for lo, hi in workload:
            cells, scanned = self._query_cost(np.asarray(lo, dtype=np.float64),
                                              np.asarray(hi, dtype=np.float64))
            total += cell_cost * cells + scanned
        return total

    def _query_cost(self, lo: np.ndarray, hi: np.ndarray) -> tuple[int, int]:
        lo_cell = self._cell_of(lo)
        hi_cell = self._cell_of(hi)
        cells = 0
        scanned = 0
        for cid in itertools.product(*(range(a, b + 1) for a, b in zip(lo_cell, hi_cell))):
            bucket = self._cells.get(cid)
            cells += 1
            if bucket is None:
                continue
            sort_keys = bucket[0]
            s_lo = int(np.searchsorted(sort_keys, lo[self.sort_dim], side="left"))
            s_hi = int(np.searchsorted(sort_keys, hi[self.sort_dim], side="right"))
            scanned += max(s_hi - s_lo, 0)
        return cells, scanned

    # -- queries ----------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        """Cell lookup, bisection on the sort key, duplicate-bounded run
        scan over points sharing that sort-key value."""
        self._require_built()
        if not self._cells:
            return None
        q = np.asarray(point, dtype=np.float64)
        bucket = self._cells.get(self._cell_of(q))
        self.stats.nodes_visited += 1
        if bucket is None:
            return None
        sort_keys, cell_pts, cell_vals = bucket
        i = int(np.searchsorted(sort_keys, q[self.sort_dim], side="left"))
        while i < sort_keys.size and sort_keys[i] == q[self.sort_dim]:
            self.stats.keys_scanned += 1
            if np.array_equal(cell_pts[i], q):
                return cell_vals[i]
            i += 1
        return None

    def _point_query_batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized batch point queries (element-wise equal to scalar).

        Routes the whole batch through the (already vectorized)
        ``_cell_ids``, groups queries per cell with one stable argsort,
        and answers each group with two ``searchsorted`` calls plus a
        vectorized row comparison; only sort-key ties longer than one
        entry fall back to the scalar run scan.
        """
        m = pts.shape[0]
        out = np.full(m, None, dtype=object)
        if not self._cells:
            return out
        ids = self._cell_ids(pts)
        flat = np.zeros(m, dtype=np.int64)
        for j, cols in enumerate(self._columns):
            flat = flat * cols + ids[:, j]
        order = np.argsort(flat, kind="stable")
        sf = flat[order]
        starts = np.concatenate(([0], np.nonzero(np.diff(sf))[0] + 1, [m]))
        self.stats.nodes_visited += m
        for s, e in zip(starts[:-1], starts[1:]):
            gidx = order[s:e]
            bucket = self._cells.get(tuple(int(c) for c in ids[gidx[0]]))
            if bucket is None:
                continue
            sort_keys, cell_pts, cell_vals = bucket
            qs = pts[gidx]
            s_vals = qs[:, self.sort_dim]
            lo = np.searchsorted(sort_keys, s_vals, side="left")
            hi = np.searchsorted(sort_keys, s_vals, side="right")
            has = lo < hi
            cand = np.minimum(lo, sort_keys.size - 1)
            first = has & np.all(cell_pts[cand] == qs, axis=1)
            self.stats.keys_scanned += int(has.sum())
            out[gidx[first]] = cell_vals[cand[first]]
            # Ties on the sort key: continue the scalar run scan.
            for t in np.nonzero(has & ~first)[0]:
                j = int(lo[t]) + 1
                while j < int(hi[t]):
                    self.stats.keys_scanned += 1
                    if np.array_equal(cell_pts[j], qs[t]):
                        out[gidx[t]] = cell_vals[j]
                        break
                    j += 1
        return out

    def range_query_batch(self, lows: np.ndarray, highs: np.ndarray) -> list[list[tuple[tuple[float, ...], object]]]:
        """Vectorized batch range queries (element-wise equal to scalar).

        Cell corners for every box are routed with one ``searchsorted``
        per grid dimension; each box is then answered by the same
        per-cell slice-and-mask as :meth:`range_query`.
        """
        self._require_built()
        lo_arr = np.asarray(lows, dtype=np.float64)
        hi_arr = np.asarray(highs, dtype=np.float64)
        if lo_arr.ndim != 2 or hi_arr.shape != lo_arr.shape:
            raise ValueError("lows/highs must both have shape (m, d)")
        m = lo_arr.shape[0]
        if m == 0 or not self._cells:
            return [[] for _ in range(m)]
        g = len(self._grid_dims)
        lo_ids = np.zeros((m, g), dtype=np.int64)
        hi_ids = np.zeros((m, g), dtype=np.int64)
        for j, (d, bounds) in enumerate(zip(self._grid_dims, self._boundaries)):
            lo_ids[:, j] = np.searchsorted(bounds, lo_arr[:, d], side="right")
            hi_ids[:, j] = np.searchsorted(bounds, hi_arr[:, d], side="right")
        return [
            as_pairs(*self._box_columns(lo, hi, a, b))
            for lo, hi, a, b in zip(lo_arr, hi_arr, lo_ids.tolist(), hi_ids.tolist())
        ]

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        return as_pairs(*self._range_columns(low, high))

    def _range_columns(self, low: Sequence[float], high: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        if not self._cells:
            return np.empty((0, self.dims)), _NO_VALUES
        return self._box_columns(lo, hi, self._cell_of(lo), self._cell_of(hi))

    def _box_columns(self, lo: np.ndarray, hi: np.ndarray, lo_cell: Sequence[int],
                     hi_cell: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Points and values inside ``[lo, hi]``, visiting the cells from
        ``lo_cell`` to ``hi_cell``: each cell's sort-key slice is filtered
        by one vectorised in-box mask."""
        pts_parts = [np.empty((0, self.dims))]
        val_parts = [_NO_VALUES]
        # ``lo <= hi`` is false for inverted boxes and NaN corners alike.
        if not np.all(lo <= hi):
            return pts_parts[0], val_parts[0]
        s_low, s_high = lo[self.sort_dim], hi[self.sort_dim]
        for cid in itertools.product(*(range(a, b + 1) for a, b in zip(lo_cell, hi_cell))):
            bucket = self._cells.get(cid)
            self.stats.nodes_visited += 1
            if bucket is None:
                continue
            sort_keys, cell_pts, cell_vals = bucket
            s_lo = int(np.searchsorted(sort_keys, s_low, side="left"))
            s_hi = int(np.searchsorted(sort_keys, s_high, side="right"))
            if s_lo >= s_hi:
                continue
            self.stats.keys_scanned += s_hi - s_lo
            seg = cell_pts[s_lo:s_hi]
            keep = s_lo + np.flatnonzero(box_mask(seg, lo, hi))
            pts_parts.append(cell_pts[keep])
            val_parts.append(cell_vals[keep])
        return np.concatenate(pts_parts), np.concatenate(val_parts)

    def __len__(self) -> int:
        return int(self._points.shape[0])
