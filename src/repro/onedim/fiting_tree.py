"""FITing-Tree — Galakatos et al., 2019.

The first data-aware learned index with inserts: the sorted keys are cut
into greedy error-bounded linear segments, segment boundary keys are kept
in a (here: sorted-array) directory, and each segment carries a small
*delta buffer* absorbing inserts.  When a buffer fills, the segment is
merged with its buffer and re-segmented, preserving the error bound.

This is the survey's canonical *mutable pure / fixed layout / delta
buffer* index.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.core.interfaces import MutableOneDimIndex
from repro.models.pla import segment_stream
from repro.onedim._search import bounded_binary_search

__all__ = ["FITingTreeIndex"]


class _FSegment:
    """One linear segment: sorted key/value arrays + insert buffer."""

    __slots__ = ("first_key", "slope", "anchor_pos", "keys", "values",
                 "buf_keys", "buf_values")

    def __init__(self, first_key: float, slope: float, anchor_pos: float,
                 keys: np.ndarray, values: list[object]) -> None:
        self.first_key = first_key
        self.slope = slope
        self.anchor_pos = anchor_pos  # local position predicted at first_key
        self.keys = keys
        self.values = values
        self.buf_keys: list[float] = []
        self.buf_values: list[object] = []


class FITingTreeIndex(MutableOneDimIndex):
    """FITing-Tree with per-segment delta buffers.

    Args:
        epsilon: segment error bound (positions).
        buffer_size: inserts per segment before merge + re-segmentation.
    """

    name = "fiting-tree"

    def __init__(self, epsilon: int = 64, buffer_size: int = 64) -> None:
        super().__init__()
        if epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.epsilon = epsilon
        self.buffer_size = buffer_size
        self._segments: list[_FSegment] = []
        self._boundaries: list[float] = []  # first_key per segment
        self._size = 0

    # -- construction --------------------------------------------------------
    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "FITingTreeIndex":
        arr, vals = self._prepare(keys, values)
        self._segments = []
        self._boundaries = []
        self._size = int(arr.size)
        self._built = True
        if arr.size:
            self._segments = self._make_segments(arr, vals)
            self._boundaries = [seg.first_key for seg in self._segments]
        self._refresh_size()
        return self

    def _make_segments(self, arr: np.ndarray, vals: list[object]) -> list[_FSegment]:
        """Epsilon-bounded segmentation of ``arr``.  Build passes the
        whole key set once; on the insert path the argument is one
        capacity-bounded segment plus its buffer, not the full index."""
        segments = []
        for seg in segment_stream(arr, float(self.epsilon)):
            keys = arr[seg.first:seg.last].copy()
            values = vals[seg.first:seg.last]
            # Convert the global-position anchor to local positions.
            local_anchor = seg.anchor_pos - seg.first
            segments.append(_FSegment(seg.key, seg.slope, local_anchor, keys, values))
        return segments

    def _refresh_size(self) -> None:
        self.stats.size_bytes = sum(
            40 + 16 * int(s.keys.size) + 16 * len(s.buf_keys) for s in self._segments
        )
        self.stats.extra["segments"] = len(self._segments)

    # -- segment routing ------------------------------------------------------
    def _segment_for(self, key: float) -> int:
        idx = bisect.bisect_right(self._boundaries, key) - 1
        self.stats.comparisons += max(1, len(self._boundaries).bit_length())
        return max(idx, 0)

    def _local_locate(self, seg: _FSegment, key: float) -> int:
        self.stats.model_predictions += 1
        raw = seg.slope * (key - seg.first_key) + seg.anchor_pos
        if not math.isfinite(key):
            # +-inf probes (open-ended scans) saturate; NaN goes last.
            raw = 0 if key < 0 else seg.keys.size - 1
        predicted = int(np.clip(round(raw), 0, max(seg.keys.size - 1, 0)))
        return bounded_binary_search(seg.keys, key, predicted, self.epsilon + 1, self.stats)

    # -- reads ------------------------------------------------------------------
    def lookup(self, key: float) -> object | None:
        self._require_built()
        if not self._segments:
            return None
        key = float(key)
        seg = self._segments[self._segment_for(key)]
        self.stats.nodes_visited += 1
        pos = self._local_locate(seg, key)
        if pos < seg.keys.size and seg.keys[pos] == key:
            self.stats.keys_scanned += 1
            return seg.values[pos]
        bpos = bisect.bisect_left(seg.buf_keys, key)
        self.stats.comparisons += max(1, len(seg.buf_keys).bit_length())
        if bpos < len(seg.buf_keys) and seg.buf_keys[bpos] == key:
            self.stats.keys_scanned += 1
            return seg.buf_values[bpos]
        return None

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high or not self._segments:
            return []
        low = float(low)
        high = float(high)
        # The last segment anchored strictly below ``low``: a run of equal
        # keys can span several segments, and ``_segment_for`` (which must
        # find an existing key) picks the last of them.
        start_seg = max(bisect.bisect_left(self._boundaries, low) - 1, 0)
        self.stats.comparisons += max(1, len(self._boundaries).bit_length())
        out: list[tuple[float, object]] = []
        for si in range(start_seg, len(self._segments)):
            seg = self._segments[si]
            # Keys (run or buffer) in segment i > 0 are >= its boundary
            # key; segment 0 may hold buffered keys below it.
            if si > 0 and seg.first_key > high:
                break
            merged: list[tuple[float, object]] = []
            lo_i = int(np.searchsorted(seg.keys, low, side="left"))
            hi_i = int(np.searchsorted(seg.keys, high, side="right"))
            merged.extend((float(seg.keys[i]), seg.values[i]) for i in range(lo_i, hi_i))
            b_lo = bisect.bisect_left(seg.buf_keys, low)
            b_hi = bisect.bisect_right(seg.buf_keys, high)
            merged.extend(zip(seg.buf_keys[b_lo:b_hi], seg.buf_values[b_lo:b_hi]))
            merged.sort(key=lambda kv: kv[0])
            out.extend(merged)
            self.stats.keys_scanned += len(merged)
        return out

    # -- writes -------------------------------------------------------------------
    def _insert(self, key: float, value: object | None) -> None:
        if not self._segments:
            self._segments = [_FSegment(key, 0.0, 0.0, np.array([key]), [value])]
            self._boundaries = [key]
            self._size = 1
            self._refresh_size()
            return
        si = self._segment_for(key)
        seg = self._segments[si]
        # Replace if present in the main array.
        pos = self._local_locate(seg, key)
        if pos < seg.keys.size and seg.keys[pos] == key:
            seg.values[pos] = value
            return
        bpos = bisect.bisect_left(seg.buf_keys, key)
        if bpos < len(seg.buf_keys) and seg.buf_keys[bpos] == key:
            seg.buf_values[bpos] = value
            return
        seg.buf_keys.insert(bpos, key)
        seg.buf_values.insert(bpos, value)
        self._size += 1
        if len(seg.buf_keys) > self.buffer_size:
            self._merge_segment(si)
        self._refresh_size()

    def _merge_segment(self, si: int) -> None:
        """Merge a segment with its buffer and re-segment it in place."""
        seg = self._segments[si]
        all_keys = np.concatenate([seg.keys, np.asarray(seg.buf_keys, dtype=np.float64)])
        all_values = list(seg.values) + list(seg.buf_values)
        order = np.argsort(all_keys, kind="mergesort")
        merged_keys = all_keys[order]
        merged_values = [all_values[i] for i in order]
        new_segments = self._make_segments(merged_keys, merged_values)
        self._segments[si:si + 1] = new_segments
        self._boundaries = [s.first_key for s in self._segments]
        self.stats.extra["merges"] = self.stats.extra.get("merges", 0) + 1

    def _delete(self, key: float) -> bool:
        if not self._segments:
            return False
        si = self._segment_for(key)
        seg = self._segments[si]
        bpos = bisect.bisect_left(seg.buf_keys, key)
        if bpos < len(seg.buf_keys) and seg.buf_keys[bpos] == key:
            del seg.buf_keys[bpos]
            del seg.buf_values[bpos]
            self._size -= 1
            return True
        pos = self._local_locate(seg, key)
        if pos < seg.keys.size and seg.keys[pos] == key:
            # Deleting from the array shifts positions, voiding the model's
            # bound — rebuild this segment (cheap: it is one segment).
            seg.keys = np.delete(seg.keys, pos)
            del seg.values[pos]
            self._size -= 1
            if seg.keys.size or seg.buf_keys:
                # Re-segment even when only buffered keys remain — dropping
                # the segment here would silently lose its insert buffer.
                self._merge_segment(si)
            else:
                del self._segments[si]
                self._boundaries = [s.first_key for s in self._segments]
            self._refresh_size()
            return True
        return False

    @property
    def num_segments(self) -> int:
        """Current number of linear segments."""
        return len(self._segments)

    def __len__(self) -> int:
        return self._size
