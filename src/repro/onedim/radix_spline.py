"""RadixSpline — Kipf et al., 2020.

A single-pass learned index: fit an error-bounded greedy spline over the
sorted keys, then build a radix table over the top ``radix_bits`` bits of
the (offset-shifted) keys pointing at the first spline knot per radix
prefix.  Lookups use the radix table to narrow the knot search, the
spline to predict a position, and a bounded binary search to correct.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import OneDimIndex, as_object_array
from repro.models.spline import GreedySpline, fit_greedy_spline
from repro.onedim._search import (
    bounded_binary_search,
    lower_bound,
    scan_range,
    windowed_lower_bound,
)

__all__ = ["RadixSplineIndex"]


class RadixSplineIndex(OneDimIndex):
    """Radix table + greedy spline (immutable, pure).

    Args:
        max_error: spline corridor half-width (default 32 positions).
        radix_bits: log2 of the radix table size (default 12).
    """

    name = "radix-spline"

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
        self._spline: GreedySpline | None = None
        self._knot_keys = np.empty(0)
        self._knot_positions = np.empty(0)
        self._values_arr = np.empty(0, dtype=object)
        self._radix_table = np.empty(0, dtype=np.int64)
        self._key_min = 0.0
        self._key_span = 1.0
        self._true_error = 0

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "RadixSplineIndex":
        self._keys, self._values = self._prepare(keys, values)
        n = self._keys.size
        self._built = True
        if n == 0:
            self._spline = GreedySpline(knots=[], max_error=self.max_error)
            self._radix_table = np.zeros(2, dtype=np.int64)
            return self

        self._spline = fit_greedy_spline(self._keys, float(self.max_error))
        self._knot_keys = np.array([k.key for k in self._spline.knots])
        self._knot_positions = np.array([k.position for k in self._spline.knots])
        self._values_arr = as_object_array(self._values)

        # Measure the spline's actual max error over the data (also covers
        # the duplicate-key corner where the corridor guarantee is void).
        preds = self._spline.predict_array(self._keys)
        self._true_error = int(np.ceil(np.max(np.abs(preds - np.arange(n))))) if n else 0

        # Radix table over the normalised key prefix.
        self._key_min = float(self._keys[0])
        self._key_span = float(self._keys[-1] - self._keys[0]) or 1.0
        table_size = 1 << self.radix_bits
        prefixes = self._prefix_array(self._knot_keys)
        # radix_table[p] = first knot whose prefix >= p.
        self._radix_table = np.searchsorted(prefixes, np.arange(table_size + 1), side="left")

        self.stats.size_bytes = self._spline.size_bytes + 8 * int(self._radix_table.size)
        self.stats.extra["knots"] = len(self._spline.knots)
        self.stats.extra["true_error"] = self._true_error
        return self

    def _prefix(self, key: float) -> int:
        frac = (key - self._key_min) / self._key_span
        return int(min(max(frac, 0.0), 1.0) * ((1 << self.radix_bits) - 1))

    def _prefix_array(self, keys: np.ndarray) -> np.ndarray:
        frac = (keys - self._key_min) / self._key_span
        return (np.clip(frac, 0.0, 1.0) * ((1 << self.radix_bits) - 1)).astype(np.int64)

    def _locate(self, key: float) -> int:
        n = self._keys.size
        self.stats.model_predictions += 1
        # Narrow the knot range with the radix table, then find the
        # bracketing knots by binary search within it.
        p = self._prefix(key)
        knot_lo = int(self._radix_table[p])
        knot_hi = int(self._radix_table[min(p + 1, self._radix_table.size - 1)])
        # Widening lo is safe (extra knots < key do not change the lower
        # bound); hi must stay exact because "not found in window" means
        # the answer IS the window's upper bound.
        knot_lo = max(knot_lo - 1, 0)
        knot_hi = min(knot_hi, self._knot_keys.size)
        seg = lower_bound(self._knot_keys, key, knot_lo, knot_hi, self.stats)
        seg = max(seg - 1, 0)
        knots = self._spline.knots
        if key <= knots[0].key:
            predicted = 0.0
        elif key >= knots[-1].key:
            predicted = knots[-1].position
        else:
            left = knots[seg]
            right = knots[min(seg + 1, len(knots) - 1)]
            if right.key == left.key:
                predicted = left.position
            else:
                t = (key - left.key) / (right.key - left.key)
                predicted = left.position + t * (right.position - left.position)
        pred_int = min(max(round(predicted), 0), n - 1)
        return bounded_binary_search(self._keys, key, pred_int, self._true_error + 1, self.stats)

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

    def lookup_batch(self, keys) -> np.ndarray:
        """Vectorized batch lookup: radix routing, spline interpolation,
        and the bounded correction all run as whole-batch numpy kernels,
        mirroring the scalar arithmetic exactly."""
        self._require_built()
        qs = np.asarray(keys, dtype=np.float64)
        if qs.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        m = qs.size
        out = np.full(m, None, dtype=object)
        n = self._keys.size
        if n == 0 or m == 0:
            return out
        kk = self._knot_keys
        kp = self._knot_positions
        # Radix routing + knot lower bound inside the table window.
        prefixes = self._prefix_array(qs)
        knot_lo = np.maximum(self._radix_table[prefixes] - 1, 0)
        knot_hi = np.minimum(
            self._radix_table[np.minimum(prefixes + 1, self._radix_table.size - 1)],
            kk.size,
        )
        seg = windowed_lower_bound(kk, qs, knot_lo, knot_hi)
        seg = np.maximum(seg - 1, 0)
        self.stats.model_predictions += m
        self.stats.comparisons += int(
            np.ceil(np.log2(np.maximum(knot_hi - knot_lo, 1).astype(np.float64))).sum()
        )
        # Spline interpolation between the bracketing knots.
        right = np.minimum(seg + 1, kk.size - 1)
        denom = kk[right] - kk[seg]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qs - kk[seg]) / denom
            predicted = kp[seg] + t * (kp[right] - kp[seg])
        predicted = np.where(denom == 0.0, kp[seg], predicted)
        predicted = np.where(qs >= kk[-1], kp[-1], predicted)
        predicted = np.where(qs <= kk[0], 0.0, predicted)
        pred_int = np.clip(np.rint(predicted), 0, n - 1).astype(np.int64)
        # Bounded last-mile correction over clamped per-key windows.
        error = self._true_error + 1
        lo = np.maximum(pred_int - error, 0)
        hi = np.minimum(pred_int + error + 1, n)
        pos = windowed_lower_bound(self._keys, qs, lo, hi)
        self.stats.corrections += int((hi - lo).sum())
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
    def num_knots(self) -> int:
        """Number of spline knots (the index's size driver)."""
        return 0 if self._spline is None else len(self._spline.knots)

    def __len__(self) -> int:
        return int(self._keys.size)
