"""Tests for the shared index interfaces and IndexStats."""

import numpy as np
import pytest

from repro.baselines import SortedArrayIndex
from repro.core.interfaces import (
    IndexStats,
    MultiDimIndex,
    NotBuiltError,
    OneDimIndex,
    as_object_array,
)


class TestIndexStats:
    def test_counters_start_at_zero(self):
        stats = IndexStats()
        assert stats.comparisons == 0
        assert stats.keys_scanned == 0
        assert stats.size_bytes == 0

    def test_reset_counters_keeps_build_info(self):
        stats = IndexStats(comparisons=5, build_seconds=1.5, size_bytes=100)
        stats.reset_counters()
        assert stats.comparisons == 0
        assert stats.build_seconds == 1.5
        assert stats.size_bytes == 100

    def test_snapshot_is_plain_dict(self):
        stats = IndexStats(comparisons=3, nodes_visited=2)
        snap = stats.snapshot()
        assert snap["comparisons"] == 3
        assert snap["nodes_visited"] == 2
        snap["comparisons"] = 99
        assert stats.comparisons == 3


class TestPrepare:
    def test_sorts_keys_and_assigns_rank_values(self):
        keys, values = OneDimIndex._prepare([3.0, 1.0, 2.0], None)
        assert list(keys) == [1.0, 2.0, 3.0]
        assert values == [0, 1, 2]

    def test_aligns_explicit_values_with_sorted_keys(self):
        keys, values = OneDimIndex._prepare([3.0, 1.0], ["c", "a"])
        assert list(keys) == [1.0, 3.0]
        assert values == ["a", "c"]

    def test_rejects_mismatched_values(self):
        with pytest.raises(ValueError):
            OneDimIndex._prepare([1.0, 2.0], ["only-one"])

    def test_rejects_non_finite_keys(self):
        with pytest.raises(ValueError):
            OneDimIndex._prepare([1.0, np.nan], None)
        with pytest.raises(ValueError):
            OneDimIndex._prepare([1.0, np.inf], None)

    def test_rejects_2d_keys(self):
        with pytest.raises(ValueError):
            OneDimIndex._prepare(np.zeros((3, 2)), None)

    def test_empty_keys_allowed(self):
        keys, values = OneDimIndex._prepare([], None)
        assert keys.size == 0
        assert values == []


class TestNotBuilt:
    def test_query_before_build_raises(self):
        index = SortedArrayIndex()
        with pytest.raises(NotBuiltError):
            index.lookup(1.0)

    def test_range_before_build_raises(self):
        index = SortedArrayIndex()
        with pytest.raises(NotBuiltError):
            index.range_query(0.0, 1.0)

    def test_insert_before_build_raises(self):
        index = SortedArrayIndex()
        with pytest.raises(NotBuiltError):
            index.insert(1.0)


class TestBuildReturnsSelf:
    def test_fluent_construction(self):
        index = SortedArrayIndex().build([1.0, 2.0, 3.0])
        assert index.lookup(2.0) == 1

    def test_contains(self):
        index = SortedArrayIndex().build([1.0, 2.0])
        assert index.contains(1.0)
        assert not index.contains(9.0)


class TestIndexStatsMerge:
    def test_merge_sums_every_counter(self):
        a = IndexStats(comparisons=3, keys_scanned=10, nodes_visited=2,
                       model_predictions=5, corrections=1,
                       build_seconds=0.5, size_bytes=100)
        b = IndexStats(comparisons=4, keys_scanned=1, nodes_visited=7,
                       model_predictions=2, corrections=9,
                       build_seconds=1.5, size_bytes=50)
        merged = a.merge(b)
        assert merged.comparisons == 7
        assert merged.keys_scanned == 11
        assert merged.nodes_visited == 9
        assert merged.model_predictions == 7
        assert merged.corrections == 10
        assert merged.build_seconds == 2.0
        assert merged.size_bytes == 150

    def test_merge_is_commutative_on_snapshots(self):
        a = IndexStats(comparisons=3, build_seconds=0.25, size_bytes=64)
        b = IndexStats(keys_scanned=8, corrections=2, size_bytes=32)
        assert a.merge(b).snapshot() == b.merge(a).snapshot()

    def test_merge_does_not_mutate_operands(self):
        a = IndexStats(comparisons=1)
        b = IndexStats(comparisons=2)
        a.merge(b)
        assert a.comparisons == 1
        assert b.comparisons == 2

    def test_merge_identity_snapshot_round_trip(self):
        a = IndexStats(comparisons=5, keys_scanned=3, build_seconds=0.1)
        merged = a.merge(IndexStats())
        assert merged.snapshot() == a.snapshot()

    def test_merge_combines_extra_annotations(self):
        a = IndexStats()
        a.extra["epsilon"] = 64
        b = IndexStats()
        b.extra["stages"] = 2
        merged = a.merge(b)
        assert merged.extra == {"epsilon": 64, "stages": 2}


class _CountingMultiDim(MultiDimIndex):
    """Minimal multi-d index counting _require_built invocations.

    ``range_query`` deliberately does not re-check the built flag, so the
    counter isolates the validations performed by the batch fallback
    itself.
    """

    def __init__(self):
        super().__init__()
        self.require_built_calls = 0

    def build(self, points, values=None):
        self._points = np.asarray(points, dtype=np.float64)
        self._values = list(values) if values is not None else list(range(len(self._points)))
        self._built = True
        return self

    def _require_built(self):
        self.require_built_calls += 1
        super()._require_built()

    def point_query(self, point):
        q = np.asarray(point, dtype=np.float64)
        for row, value in zip(self._points, self._values):
            if np.array_equal(row, q):
                return value
        return None

    def range_query(self, low, high):
        lo = np.asarray(low, dtype=np.float64)
        hi = np.asarray(high, dtype=np.float64)
        out = []
        for row, value in zip(self._points, self._values):
            if np.all(row >= lo) and np.all(row <= hi):
                out.append((tuple(float(x) for x in row), value))
        return out


class TestRangeQueryBatchFallback:
    def test_validates_exactly_once_per_batch_call(self):
        index = _CountingMultiDim().build(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        lows = np.array([[0.0, 0.0], [1.5, 1.5], [2.5, 2.5], [9.0, 9.0]])
        highs = lows + 1.0
        index.require_built_calls = 0
        index.range_query_batch(lows, highs)
        assert index.require_built_calls == 1

    def test_matches_scalar_loop(self):
        index = _CountingMultiDim().build(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        lows = np.array([[0.0, 0.0], [1.5, 1.5], [9.0, 9.0]])
        highs = lows + 1.0
        batched = index.range_query_batch(lows, highs)
        assert batched == [index.range_query(lo, hi) for lo, hi in zip(lows, highs)]

    def test_rejects_mismatched_corner_shapes(self):
        index = _CountingMultiDim().build(np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            index.range_query_batch(np.zeros((2, 2)), np.zeros((3, 2)))


class TestAsObjectArray:
    def test_payloads_stay_single_objects(self):
        payloads = [(1, 2), [3, 4], np.array([5, 6]), None, "s", 7, {"k": 1}]
        out = as_object_array(payloads)
        assert out.dtype == object and out.shape == (len(payloads),)
        assert all(a is b for a, b in zip(out, payloads))

    def test_equal_shape_sequences_do_not_become_a_matrix(self):
        out = as_object_array([(1, 2), (3, 4)])
        assert out.shape == (2,) and out[0] == (1, 2) and isinstance(out[1], tuple)

    def test_ndarray_input(self):
        rows = np.arange(6).reshape(3, 2)
        out = as_object_array(rows)
        assert out.shape == (3,)
        assert all(np.array_equal(o, r) for o, r in zip(out, rows))
        scalars = as_object_array(np.arange(3))
        assert scalars.tolist() == [0, 1, 2] and isinstance(scalars[0], np.int64)

    def test_empty(self):
        out = as_object_array([])
        assert out.dtype == object and out.shape == (0,)
