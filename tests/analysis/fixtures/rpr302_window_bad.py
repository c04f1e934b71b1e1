"""RPR302 positive fixture: learned windows that only clip a global search.

Cut from the pre-window ``RMIIndex.lookup_batch`` and
``RadixSplineIndex.lookup_batch``: both build per-query ``lo``/``hi``
columns from the model's prediction, then run ``np.searchsorted`` over
the whole key array and clip the answer into the window.
"""

import numpy as np

__all__ = ["OneDimIndex", "ClippedRMI", "ClippedSpline"]


class OneDimIndex:  # stub base so the fixture imports standalone
    pass


class ClippedRMI(OneDimIndex):
    def build(self, keys, values=None):
        self._keys = np.sort(np.asarray(keys, dtype=np.float64))
        self._slope = (self._keys.size - 1) / (self._keys[-1] - self._keys[0])
        self._error = 8
        return self

    def lookup_batch(self, keys):
        qs = np.asarray(keys, dtype=np.float64)
        n = self._keys.size
        predicted = np.clip(np.rint(self._slope * (qs - self._keys[0])), 0, n - 1).astype(np.int64)
        lo = np.maximum(predicted - self._error, 0)
        hi = np.minimum(predicted + self._error + 1, n)
        global_pos = np.searchsorted(self._keys, qs, side="left")
        pos = np.clip(global_pos, lo, hi)
        hit = (pos < n) & (self._keys[np.minimum(pos, n - 1)] == qs)
        return np.where(hit, pos, -1)


class ClippedSpline(OneDimIndex):
    def build(self, keys, values=None):
        self._keys = np.sort(np.asarray(keys, dtype=np.float64))
        self._knot_keys = self._keys[::64]
        self._radix_table = np.arange(self._knot_keys.size + 1)
        return self

    def _prefix_array(self, qs):
        return np.zeros(qs.size, dtype=np.int64)

    def lookup_batch(self, keys):
        qs = np.asarray(keys, dtype=np.float64)
        kk = self._knot_keys
        prefixes = self._prefix_array(qs)
        knot_lo = np.maximum(self._radix_table[prefixes] - 1, 0)
        knot_hi = np.minimum(self._radix_table[prefixes + 1], kk.size)
        return np.clip(np.searchsorted(kk, qs, side="left"), knot_lo, knot_hi)
