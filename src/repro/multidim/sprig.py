"""SPRIG — Zhang et al., 2021: a spatial interpolation-function index.

SPRIG samples the data to build a spatial interpolation function over a
grid and answers queries by interpolating a predicted location, then
correcting with an error-bounded local search.  Reproduced as:

* per-dimension boundary samples (data quantiles — the interpolation
  sample);
* cell location by *interpolation search* over the boundary sample (an
  arithmetic guess repaired by a short scan, never a full binary
  search);
* per-cell point storage sorted by the last dimension, searched with a
  final bounded search.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import MultiDimIndex
from repro.multidim._cells import cell_runs

__all__ = ["SPRIGIndex"]


class SPRIGIndex(MultiDimIndex):
    """Spatial interpolation grid.

    Args:
        cells_per_dim: grid resolution (boundary sample size per dim).
    """

    name = "sprig"

    def __init__(self, cells_per_dim: int = 16) -> None:
        super().__init__()
        if cells_per_dim < 2:
            raise ValueError("cells_per_dim must be >= 2")
        self.cells_per_dim = cells_per_dim
        self._boundaries: list[np.ndarray] = []
        self._cells: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, list[object]]] = {}
        self._size = 0

    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "SPRIGIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._size = int(pts.shape[0])
        self._built = True
        self._cells = {}
        if pts.shape[0] == 0:
            return self
        self._extent = float(np.max(pts.max(axis=0) - pts.min(axis=0))) or 1.0
        # Interpolation sample: equi-depth boundaries per dimension.
        probs = np.linspace(0.0, 1.0, self.cells_per_dim + 1)
        self._boundaries = [np.quantile(pts[:, d], probs) for d in range(self.dims)]

        cell_ids = np.column_stack([
            np.clip(np.searchsorted(self._boundaries[d][1:-1], pts[:, d], side="right"),
                    0, self.cells_per_dim - 1)
            for d in range(self.dims)
        ])
        sort_dim = self.dims - 1
        order = np.lexsort((pts[:, sort_dim],) + tuple(cell_ids.T[::-1]))
        sorted_ids = cell_ids[order]
        sorted_pts = pts[order]
        sorted_vals = [vals[i] for i in order.tolist()]
        for cid, start, end in cell_runs(sorted_ids):
            cell_pts = sorted_pts[start:end]
            self._cells[cid] = (cell_pts[:, sort_dim].copy(), cell_pts, sorted_vals[start:end])
        self.stats.size_bytes = (
            sum(b.size * 8 for b in self._boundaries) + len(self._cells) * 48 + self._size * 8
        )
        self.stats.extra["cells"] = len(self._cells)
        return self

    # -- interpolation search over the boundary sample --------------------------
    def _cell_coord(self, d: int, x: float) -> int:
        """Locate x's cell along dimension d by interpolation search.

        Config-bounded repair scan: the correction walk moves within the
        ``cells_per_dim`` quantile boundaries, never over the data.
        """
        bounds = self._boundaries[d]
        lo = float(bounds[0])
        hi = float(bounds[-1])
        cells = self.cells_per_dim
        if x <= lo:
            return 0
        if x >= hi:
            return cells - 1
        span = hi - lo
        guess = int((x - lo) / span * cells) if span > 0 else 0
        guess = min(max(guess, 0), cells - 1)
        # Repair scan against the (non-uniform) quantile boundaries.
        while guess > 0 and x < bounds[guess]:
            guess -= 1
            self.stats.corrections += 1
        while guess < cells - 1 and x >= bounds[guess + 1]:
            guess += 1
            self.stats.corrections += 1
        return guess

    def _cell_of(self, p: np.ndarray) -> tuple[int, ...]:
        return tuple(self._cell_coord(d, float(p[d])) for d in range(self.dims))

    # -- queries ------------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        """Learned cell probe, then a tie-bounded scan: the walk only
        crosses the run of points sharing the query's sort key."""
        self._require_built()
        if not self._cells:
            return None
        q = np.asarray(point, dtype=np.float64)
        self.stats.model_predictions += 1
        bucket = self._cells.get(self._cell_of(q))
        self.stats.nodes_visited += 1
        if bucket is None:
            return None
        sort_keys, cell_pts, cell_vals = bucket
        i = int(np.searchsorted(sort_keys, q[-1], side="left"))
        while i < sort_keys.size and sort_keys[i] == q[-1]:
            self.stats.keys_scanned += 1
            if np.array_equal(cell_pts[i], q):
                return cell_vals[i]
            i += 1
        return None

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        if not self._cells:
            return []
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        if np.any(hi < lo):
            return []
        lo_cell = self._cell_of(lo)
        hi_cell = self._cell_of(hi)
        import itertools

        out: list[tuple[tuple[float, ...], object]] = []
        sort_dim = self.dims - 1
        for cid in itertools.product(*(range(a, b + 1) for a, b in zip(lo_cell, hi_cell))):
            bucket = self._cells.get(cid)
            self.stats.nodes_visited += 1
            if bucket is None:
                continue
            sort_keys, cell_pts, cell_vals = bucket
            s_lo = int(np.searchsorted(sort_keys, lo[sort_dim], side="left"))
            s_hi = int(np.searchsorted(sort_keys, hi[sort_dim], side="right"))
            for i in range(s_lo, s_hi):
                p = cell_pts[i]
                self.stats.keys_scanned += 1
                if np.all(p >= lo) and np.all(p <= hi):
                    out.append((tuple(float(c) for c in p), cell_vals[i]))
        return out

    def __len__(self) -> int:
        return self._size
