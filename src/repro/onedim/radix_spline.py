"""RadixSpline — Kipf et al., 2020.

A single-pass learned index: fit an error-bounded greedy spline over the
sorted keys, then build a radix table over the top ``radix_bits`` bits of
the (offset-shifted) keys pointing at the first spline knot per radix
prefix.  Lookups use the radix table to narrow the knot search; the
spline, held as a :class:`~repro.models.pla.LearnedColumn` with the knots
as its anchors, predicts a position and a bounded binary search corrects
it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import OneDimIndex, as_object_array
from repro.models.pla import LearnedColumn, spline_knots
from repro.onedim._search import lower_bound, scan_range, windowed_lower_bound

__all__ = ["RadixSplineIndex"]


class RadixSplineIndex(OneDimIndex):
    """Radix table + greedy spline (immutable, pure).

    Args:
        max_error: spline corridor half-width (default 32 positions).
        radix_bits: log2 of the radix table size (default 12).
    """

    name = "radix-spline"
    #: Rows from which ``lookup_batch`` runs the kernel: at 10⁵ keys a
    #: kernel call costs ~48 µs and a scalar lookup ~4.5 µs (E17's
    #: crossover arm; DESIGN.md "Small batches").
    batch_crossover = 12

    def __init__(self, max_error: int = 32, radix_bits: int = 12) -> None:
        super().__init__()
        if max_error < 1:
            raise ValueError("max_error must be >= 1")
        if not 1 <= radix_bits <= 24:
            raise ValueError("radix_bits must be in [1, 24]")
        self.max_error = max_error
        self.radix_bits = radix_bits
        self._keys = np.empty(0)
        self._values: list[object] = []
        self._column = LearnedColumn(self._keys, max_error)
        self._values_arr = np.empty(0, dtype=object)
        self._radix_table = np.empty(0, dtype=np.int64)
        self._key_min = 0.0
        self._key_span = 1.0

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "RadixSplineIndex":
        self._keys, self._values = self._prepare(keys, values)
        self._built = True
        if self._keys.size == 0:
            self._column = LearnedColumn(self._keys, self.max_error)
            self._radix_table = np.zeros(2, dtype=np.int64)
            return self

        knot_keys, knot_positions = spline_knots(self._keys, float(self.max_error))
        # The column's epsilon is the spline's measured error over the
        # data (it also covers the duplicate-key corner where the corridor
        # guarantee is void).
        self._column = LearnedColumn.through(self._keys, knot_keys, knot_positions)
        self._values_arr = as_object_array(self._values)

        # Radix table over the normalised key prefix.
        self._key_min = float(self._keys[0])
        self._key_span = float(self._keys[-1] - self._keys[0]) or 1.0
        table_size = 1 << self.radix_bits
        prefixes = self._prefix_array(knot_keys)
        # radix_table[p] = first knot whose prefix >= p.
        self._radix_table = np.searchsorted(prefixes, np.arange(table_size + 1), side="left")

        # The spline stores two float64 per knot; slopes are derived.
        self.stats.size_bytes = 16 * knot_keys.size + 8 * int(self._radix_table.size)
        self.stats.extra["knots"] = knot_keys.size
        self.stats.extra["true_error"] = self._column.epsilon
        return self

    def _prefix(self, key: float) -> int:
        frac = (key - self._key_min) / self._key_span
        # NaN takes the top prefix: it orders after every key.
        return int((max(frac, 0.0) if frac < 1.0 else 1.0) * ((1 << self.radix_bits) - 1))

    def _prefix_array(self, keys: np.ndarray) -> np.ndarray:
        frac = (keys - self._key_min) / self._key_span
        return (np.fmin(np.maximum(frac, 0.0), 1.0) * ((1 << self.radix_bits) - 1)).astype(np.int64)

    def _route(self, key: float) -> int:
        """The last knot strictly below ``key``, searched inside its radix
        window (0 if none; NaN routes to the last knot)."""
        p = self._prefix(key)
        # Widening lo is safe (extra knots < key do not change the lower
        # bound); hi must stay exact because "not found in window" means
        # the answer IS the window's upper bound.
        knot_lo = max(int(self._radix_table[p]) - 1, 0)
        knot_hi = int(self._radix_table[min(p + 1, self._radix_table.size - 1)])
        return max(lower_bound(self._column.keys, key, knot_lo, knot_hi, self.stats) - 1, 0)

    def _route_batch(self, qs: np.ndarray) -> np.ndarray:
        """:meth:`_route` per row."""
        prefixes = self._prefix_array(qs)
        knot_lo = np.maximum(self._radix_table[prefixes] - 1, 0)
        knot_hi = self._radix_table[np.minimum(prefixes + 1, self._radix_table.size - 1)]
        self.stats.comparisons += int(
            np.ceil(np.log2(np.maximum(knot_hi - knot_lo, 1).astype(np.float64))).sum()
        )
        return np.maximum(windowed_lower_bound(self._column.keys, qs, knot_lo, knot_hi) - 1, 0)

    def _locate(self, key: float) -> int:
        return self._column.search(self._keys, self._route(key), key, self.stats)

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

    def _lookup_batch(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized batch lookup: radix routing, then the column's
        predict, clamp and bounded correction, as whole-batch kernels."""
        out = np.full(qs.size, None, dtype=object)
        n = self._keys.size
        if n == 0:
            return out
        pos = self._column.search_batch(self._keys, self._route_batch(qs), qs, self.stats)
        hit = (pos < n) & (self._keys[np.minimum(pos, n - 1)] == qs)
        hit_idx = np.nonzero(hit)[0]
        self.stats.keys_scanned += int(hit_idx.size)
        out[hit_idx] = self._values_arr[pos[hit_idx]]
        return out

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high or self._keys.size == 0:  # a NaN bound selects nothing
            return []
        start = self._locate(float(low))
        return scan_range(self._keys, self._values, start, high, self.stats)

    @property
    def num_knots(self) -> int:
        """Number of spline knots (the index's size driver)."""
        return len(self._column)

    def __len__(self) -> int:
        return int(self._keys.size)
