"""NFL-style distribution-transforming learned index (Wu et al., 2022).

NFL ("Normalizing Flow for Learned index") observes that learned indexes
degrade on hard key distributions, and fixes the *data* instead of the
model: a lightweight monotone transformation reshapes the keys into a
nearly uniform distribution, after which a simple learned index performs
like it would on uniform data.

The published system trains a numerical normalizing flow; the monotone
transform reproduced here is the spline-interpolated empirical CDF over
a quantile sample — the same fixed point the flow converges to, with the
same O(1)-parameters/O(log sample) evaluation cost.  The back-end index
over the transformed keys is a PGM; the delta buffer makes it mutable
(the NFL paper's variant buffers inserts the same way).
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex
from repro.models.pla import Segment, segment_stream
from repro.onedim._search import bounded_binary_search

__all__ = ["NFLIndex"]


class NFLIndex(MutableOneDimIndex):
    """Distribution transform + learned index over transformed keys.

    Args:
        num_anchors: quantile sample size of the monotone transform.
        epsilon: error bound of the back-end PLA over transformed keys.
        buffer_limit: inserts buffered before a rebuild of the back end.
    """

    name = "nfl"

    def __init__(self, num_anchors: int = 256, epsilon: int = 16,
                 buffer_limit: int = 1024) -> None:
        super().__init__()
        if num_anchors < 2:
            raise ValueError("num_anchors must be >= 2")
        if epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        self.num_anchors = num_anchors
        self.epsilon = epsilon
        self.buffer_limit = buffer_limit
        self._anchors = np.empty(0)
        self._keys = np.empty(0)          # original keys, sorted
        self._transformed = np.empty(0)   # transform of _keys (also sorted)
        self._values: list[object] = []
        self._segments: list[Segment] = []
        self._segment_keys = np.empty(0)
        self._buf_keys: list[float] = []
        self._buf_values: list[object] = []

    # -- the monotone transform -------------------------------------------
    def _fit_transform(self, keys: np.ndarray) -> None:
        probs = np.linspace(0.0, 1.0, self.num_anchors)
        self._anchors = np.quantile(keys, probs)

    def transform(self, key: float) -> float:
        """Monotone map of ``key`` into [0, num_anchors - 1].

        Piecewise-linear interpolation of the empirical CDF through the
        quantile anchors; out-of-range keys extrapolate linearly off the
        end anchors so the map stays strictly monotone everywhere.
        """
        anchors = self._anchors
        n = anchors.size
        if n == 0:
            return key
        span = float(anchors[-1] - anchors[0]) or 1.0
        if key <= anchors[0]:
            return (key - float(anchors[0])) / span
        if key >= anchors[-1]:
            return (n - 1) + (key - float(anchors[-1])) / span
        i = int(np.searchsorted(anchors, key, side="right")) - 1
        i = min(i, n - 2)
        left = float(anchors[i])
        right = float(anchors[i + 1])
        frac = 0.0 if right == left else (key - left) / (right - left)
        return i + frac

    def transform_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`transform`."""
        return np.array([self.transform(float(k)) for k in keys])

    # -- construction -------------------------------------------------------
    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "NFLIndex":
        arr, vals = self._prepare(keys, values)
        self._built = True
        self._buf_keys = []
        self._buf_values = []
        self._keys = arr
        self._values = vals
        if arr.size == 0:
            self._segments = []
            self._transformed = np.empty(0)
            return self
        self._fit_transform(arr)
        self._transformed = self.transform_array(arr)
        self._segments = segment_stream(self._transformed, float(self.epsilon))
        self._segment_keys = np.array([seg.key for seg in self._segments])
        self.stats.size_bytes = (
            8 * int(self._anchors.size)
            + sum(seg.size_bytes for seg in self._segments)
        )
        self.stats.extra["segments"] = len(self._segments)
        return self

    # -- reads ----------------------------------------------------------------
    def _locate(self, key: float) -> int:
        t = self.transform(key)
        self.stats.model_predictions += 1
        seg_idx = int(np.searchsorted(self._segment_keys, t, side="right")) - 1
        seg_idx = min(max(seg_idx, 0), len(self._segments) - 1)
        seg = self._segments[seg_idx]
        raw = seg.predict(t)
        if math.isinf(t):
            # +-inf probes (open-ended scans): saturate the prediction.
            raw = seg.first if t < 0 else seg.last - 1
        predicted = int(np.clip(round(raw), seg.first, seg.last - 1))
        return bounded_binary_search(self._transformed, t, predicted,
                                     self.epsilon + 1, self.stats)

    def lookup(self, key: float) -> object | None:
        """Duplicate-bounded: after the learned locate, the scan covers
        only the equal-transform run plus a bisect of the small buffer."""
        self._require_built()
        key = float(key)
        if self._keys.size:
            pos = self._locate(key)
            # The transform is monotone but may collapse ties; scan the
            # tiny equal-transform run for the exact key.
            i = pos
            while i < self._keys.size and self._transformed[i] <= self.transform(key) + 1e-12:
                self.stats.keys_scanned += 1
                if self._keys[i] == key:
                    return self._values[i]
                i += 1
        bpos = bisect.bisect_left(self._buf_keys, key)
        if bpos < len(self._buf_keys) and self._buf_keys[bpos] == key:
            return self._buf_values[bpos]
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if high < low:
            return []
        out: list[tuple[float, object]] = []
        if self._keys.size:
            start = int(np.searchsorted(self._keys, low, side="left"))
            i = start
            while i < self._keys.size and self._keys[i] <= high:
                out.append((float(self._keys[i]), self._values[i]))
                self.stats.keys_scanned += 1
                i += 1
        b_lo = bisect.bisect_left(self._buf_keys, float(low))
        b_hi = bisect.bisect_right(self._buf_keys, float(high))
        out.extend(zip(self._buf_keys[b_lo:b_hi], self._buf_values[b_lo:b_hi]))
        out.sort(key=lambda kv: kv[0])
        return out

    # -- writes -------------------------------------------------------------------
    def insert(self, key: float, value: object | None = None) -> None:
        self._require_built()
        key = float(key)
        if self._keys.size:
            pos = int(np.searchsorted(self._keys, key, side="left"))
            if pos < self._keys.size and self._keys[pos] == key:
                self._values[pos] = value
                return
        bpos = bisect.bisect_left(self._buf_keys, key)
        if bpos < len(self._buf_keys) and self._buf_keys[bpos] == key:
            self._buf_values[bpos] = value
            return
        self._buf_keys.insert(bpos, key)
        self._buf_values.insert(bpos, value)
        if len(self._buf_keys) > max(self.buffer_limit, self._keys.size // 4):
            self._rebuild()

    def _rebuild(self) -> None:
        """Fold the buffer in and refit transform + back-end index.

        Compaction-bounded: triggered only once the buffer outgrows a
        constant fraction of the back end (geometric threshold), so the
        O(n) refit is amortized O(1)-ish per insert that funded it.
        """
        merged_keys = np.concatenate([self._keys, np.asarray(self._buf_keys)])
        merged_values = list(self._values) + list(self._buf_values)
        order = np.argsort(merged_keys, kind="mergesort")
        self.build(merged_keys[order], [merged_values[i] for i in order])
        self.stats.extra["rebuilds"] = self.stats.extra.get("rebuilds", 0) + 1

    def delete(self, key: float) -> bool:
        self._require_built()
        key = float(key)
        bpos = bisect.bisect_left(self._buf_keys, key)
        if bpos < len(self._buf_keys) and self._buf_keys[bpos] == key:
            del self._buf_keys[bpos]
            del self._buf_values[bpos]
            return True
        if self._keys.size:
            pos = int(np.searchsorted(self._keys, key, side="left"))
            if pos < self._keys.size and self._keys[pos] == key:
                self._keys = np.delete(self._keys, pos)
                self._transformed = np.delete(self._transformed, pos)
                del self._values[pos]
                # Positions shifted: refit the back-end segments.
                if self._keys.size:
                    self._segments = segment_stream(self._transformed, float(self.epsilon))
                    self._segment_keys = np.array([seg.key for seg in self._segments])
                else:
                    self._segments = []
                return True
        return False

    @property
    def transformed_hardness(self) -> float:
        """Segments per key of the back end — lower means the transform
        made the data easier (the NFL claim)."""
        if self._keys.size == 0:
            return 0.0
        return len(self._segments) / self._keys.size

    def __len__(self) -> int:
        return int(self._keys.size) + len(self._buf_keys)
