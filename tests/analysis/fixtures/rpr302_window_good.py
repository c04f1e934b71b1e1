"""RPR302 negative fixture: the window is searched, not clipped into.

Cut from the windowed ``RMIIndex.lookup_batch``: the shared helper
probes only ``[lo, hi)``, and the one ``searchsorted`` left runs over the
rows whose bound was violated, not the batch.
"""

import numpy as np

__all__ = ["OneDimIndex", "WindowedRMI", "windowed_lower_bound"]


def windowed_lower_bound(keys, queries, lo, hi):  # stands in for _search's
    return np.clip(np.searchsorted(keys, queries, side="left"), lo, hi)


class OneDimIndex:  # stub base so the fixture imports standalone
    pass


class WindowedRMI(OneDimIndex):
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
        pos = windowed_lower_bound(self._keys, qs, lo, hi)
        at = self._keys.take(pos, mode="clip")
        violated = np.nonzero(
            ((pos < n) & (at < qs))
            | ((pos > 0) & (self._keys.take(pos - 1, mode="clip") >= qs))
        )[0]
        if violated.size:
            pos[violated] = np.searchsorted(self._keys, qs[violated], side="left")
            at[violated] = self._keys.take(pos[violated], mode="clip")
        hit = (pos < n) & (at == qs)
        return np.where(hit, pos, -1)
