"""RSMI-style recursive spatial model index (Qi et al., 2020).

RSMI's two ideas, both reproduced:

* **Rank space**: instead of raw coordinates, each dimension is mapped
  through its empirical CDF (equi-depth quantile cells), which immunises
  the curve ordering against skew — exactly the transformation RSMI
  applies before its models.
* **Space-filling-curve models**: points are ordered by the Hilbert code
  of their rank-space cells, and a learned model (PLA over codes) routes
  queries to fixed-size blocks; inserts go to the blocks, which split
  when overfull (the *mutable pure / projected* branch).

Range queries enumerate the rank-space cells intersecting the box,
group their Hilbert codes into contiguous runs, and scan only the blocks
those runs touch.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableMultiDimIndex
from repro.curves.hilbert import hilbert_encode
from repro.models.pla import LearnedColumn

__all__ = ["RSMIIndex"]


class _Block:
    """One leaf block: parallel code/point/value lists sorted by code."""

    __slots__ = ("codes", "points", "values")

    def __init__(self) -> None:
        self.codes: list[int] = []
        self.points: list[np.ndarray] = []
        self.values: list[object] = []

    def __len__(self) -> int:
        return len(self.codes)


class RSMIIndex(MutableMultiDimIndex):
    """Rank-space Hilbert projection + learned block routing.

    Args:
        bits: rank-space resolution per dimension (cells = 2**bits;
            keep small — range queries enumerate intersecting cells).
        block_size: target points per leaf block.
        epsilon: error bound of the learned code -> position model.
    """

    name = "rsmi"

    def __init__(self, bits: int = 6, block_size: int = 256, epsilon: int = 32) -> None:
        super().__init__()
        if not 1 <= bits <= 10:
            raise ValueError("bits must be in [1, 10]")
        if block_size < 8:
            raise ValueError("block_size must be >= 8")
        self.bits = bits
        self.block_size = block_size
        self.epsilon = epsilon
        self._boundaries: list[np.ndarray] = []
        self._blocks: list[_Block] = []
        self._block_starts: list[int] = []
        self._model = LearnedColumn(np.empty(0), epsilon)
        self._size = 0

    # -- rank space ---------------------------------------------------------
    def _rank_coords(self, p: np.ndarray) -> tuple[int, ...]:
        cells = 1 << self.bits
        out = []
        for d in range(self.dims):
            c = int(np.searchsorted(self._boundaries[d], p[d], side="right"))
            out.append(min(max(c, 0), cells - 1))
        return tuple(out)

    def _code_of(self, p: np.ndarray) -> int:
        return hilbert_encode(self._rank_coords(p), self.bits)

    # -- construction ----------------------------------------------------------
    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "RSMIIndex":
        pts, vals = self._prepare_points(points, values)
        self.dims = int(pts.shape[1]) if pts.size else 0
        self._size = int(pts.shape[0])
        self._built = True
        self._blocks = []
        self._block_starts = []
        if pts.shape[0] == 0:
            return self
        self._extent = float(np.max(pts.max(axis=0) - pts.min(axis=0))) or 1.0
        cells = 1 << self.bits
        probs = np.linspace(0.0, 1.0, cells + 1)[1:-1]
        self._boundaries = [np.quantile(pts[:, d], probs) for d in range(self.dims)]

        codes = np.array([self._code_of(pts[i]) for i in range(pts.shape[0])], dtype=np.int64)
        order = np.argsort(codes, kind="mergesort")
        for start in range(0, order.size, self.block_size):
            chunk = order[start:start + self.block_size]
            block = _Block()
            block.codes = [int(codes[i]) for i in chunk]
            block.points = [pts[i].copy() for i in chunk]
            block.values = [vals[i] for i in chunk]
            self._blocks.append(block)
            self._block_starts.append(block.codes[0])

        # Learned routing model over the sorted code sequence.
        self._model = LearnedColumn(codes[order], self.epsilon)
        self.stats.size_bytes = (
            sum(b.size * 8 for b in self._boundaries)
            + self._model.size_bytes
            + sum(len(b) * (8 + 8 * self.dims) + 24 for b in self._blocks)
        )
        self.stats.extra["blocks"] = len(self._blocks)
        self.stats.extra["segments"] = len(self._model)
        return self

    def _block_for(self, code: int) -> int:
        """Learned block hint plus an error-bounded repair scan against
        the block-start directory (steps counted as corrections)."""
        if len(self._model):
            self.stats.model_predictions += 1
            hint = int(self._model.predict(self._model.route(code), code)) // self.block_size
        else:
            hint = 0
        idx = min(max(hint, 0), len(self._blocks) - 1)
        while idx > 0 and self._block_starts[idx] > code:
            idx -= 1
            self.stats.comparisons += 1
        while idx + 1 < len(self._blocks) and self._block_starts[idx + 1] <= code:
            idx += 1
            self.stats.comparisons += 1
        return idx

    # -- queries ------------------------------------------------------------------
    def point_query(self, point: Sequence[float]) -> object | None:
        """Learned block route plus a duplicate-bounded scan: the walk
        covers only blocks overlapped by the equal-code run."""
        self._require_built()
        if not self._blocks:
            return None
        q = np.asarray(point, dtype=np.float64)
        code = self._code_of(q)
        bi = self._block_for(code)
        # A code run may span adjacent blocks in either direction.
        while bi > 0 and self._blocks[bi - 1].codes and self._blocks[bi - 1].codes[-1] >= code:
            bi -= 1
        for idx in range(bi, len(self._blocks)):
            block = self._blocks[idx]
            if block.codes and block.codes[0] > code:
                break
            self.stats.nodes_visited += 1
            i = bisect.bisect_left(block.codes, code)
            while i < len(block.codes) and block.codes[i] == code:
                self.stats.keys_scanned += 1
                if np.array_equal(block.points[i], q):
                    return block.values[i]
                i += 1
        return None

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        self._require_built()
        if not self._blocks:
            return []
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        if np.any(hi < lo):
            return []
        lo_rank = self._rank_coords(lo)
        hi_rank = self._rank_coords(hi)
        # Hilbert codes of every intersecting rank cell, as contiguous runs.
        cell_codes = sorted(
            hilbert_encode(cell, self.bits)
            for cell in itertools.product(
                *(range(a, b + 1) for a, b in zip(lo_rank, hi_rank))
            )
        )
        out: list[tuple[tuple[float, ...], object]] = []
        run_start = 0
        for i in range(1, len(cell_codes) + 1):
            if i == len(cell_codes) or cell_codes[i] != cell_codes[i - 1] + 1:
                self._scan_code_run(cell_codes[run_start], cell_codes[i - 1], lo, hi, out)
                run_start = i
        return out

    def _scan_code_run(self, code_lo: int, code_hi: int, lo: np.ndarray,
                       hi: np.ndarray, out: list) -> None:
        bi = self._block_for(code_lo)
        while bi > 0 and self._blocks[bi - 1].codes and self._blocks[bi - 1].codes[-1] >= code_lo:
            bi -= 1
        for idx in range(bi, len(self._blocks)):
            block = self._blocks[idx]
            if block.codes and block.codes[0] > code_hi:
                break
            self.stats.nodes_visited += 1
            i = bisect.bisect_left(block.codes, code_lo)
            while i < len(block.codes) and block.codes[i] <= code_hi:
                p = block.points[i]
                self.stats.keys_scanned += 1
                if np.all(p >= lo) and np.all(p <= hi):
                    out.append((tuple(float(c) for c in p), block.values[i]))
                i += 1

    # -- updates --------------------------------------------------------------------
    def insert(self, point: Sequence[float], value: object | None = None) -> None:
        """Learned block route, duplicate-bounded replace scan, and a
        capacity-bounded block insert (blocks split at 2x block_size)."""
        self._require_built()
        p = np.asarray(point, dtype=np.float64)
        if not self._blocks:
            self.dims = int(p.size)
            self._extent = 1.0
            cells = 1 << self.bits
            probs = np.linspace(0.0, 1.0, cells + 1)[1:-1]
            self._boundaries = [np.full(probs.size, float(p[d])) for d in range(self.dims)]
            self._blocks = [_Block()]
            self._block_starts = [0]
        code = self._code_of(p)
        bi = self._block_for(code)
        block = self._blocks[bi]
        i = bisect.bisect_left(block.codes, code)
        j = i
        while j < len(block.codes) and block.codes[j] == code:
            if np.array_equal(block.points[j], p):
                block.values[j] = value
                return
            j += 1
        block.codes.insert(i, code)
        block.points.insert(i, p.copy())
        block.values.insert(i, value)
        self._block_starts[bi] = block.codes[0]
        self._size += 1
        if len(block) > 2 * self.block_size:
            self._split_block(bi)

    def _split_block(self, bi: int) -> None:
        block = self._blocks[bi]
        mid = len(block) // 2
        right = _Block()
        right.codes = block.codes[mid:]
        right.points = block.points[mid:]
        right.values = block.values[mid:]
        block.codes = block.codes[:mid]
        block.points = block.points[:mid]
        block.values = block.values[:mid]
        self._blocks.insert(bi + 1, right)
        self._block_starts = [b.codes[0] if b.codes else 0 for b in self._blocks]
        self.stats.extra["splits"] = self.stats.extra.get("splits", 0) + 1

    def delete(self, point: Sequence[float]) -> bool:
        self._require_built()
        if not self._blocks:
            return False
        p = np.asarray(point, dtype=np.float64)
        code = self._code_of(p)
        bi = self._block_for(code)
        while bi > 0 and self._blocks[bi - 1].codes and self._blocks[bi - 1].codes[-1] >= code:
            bi -= 1
        for idx in range(bi, len(self._blocks)):
            block = self._blocks[idx]
            if block.codes and block.codes[0] > code:
                break
            i = bisect.bisect_left(block.codes, code)
            while i < len(block.codes) and block.codes[i] == code:
                if np.array_equal(block.points[i], p):
                    del block.codes[i]
                    del block.points[i]
                    del block.values[i]
                    if block.codes:
                        self._block_starts[idx] = block.codes[0]
                    self._size -= 1
                    return True
                i += 1
        return False

    @property
    def num_blocks(self) -> int:
        """Current number of leaf blocks."""
        return len(self._blocks)

    def __len__(self) -> int:
        return self._size
