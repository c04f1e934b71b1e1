"""Unit tests for the shared last-mile search helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interfaces import IndexStats
from repro.onedim._search import bounded_binary_search, exponential_search, lower_bound

KEYS = np.array([1.0, 3.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0])


class TestLowerBound:
    def test_finds_first_occurrence_of_duplicates(self):
        assert lower_bound(KEYS, 3.0, 0, KEYS.size) == 1

    def test_absent_key_insertion_point(self):
        assert lower_bound(KEYS, 4.0, 0, KEYS.size) == 3
        assert lower_bound(KEYS, 0.5, 0, KEYS.size) == 0
        assert lower_bound(KEYS, 100.0, 0, KEYS.size) == KEYS.size

    def test_respects_window(self):
        # Searching [2, 5) cannot see positions outside the window.
        assert lower_bound(KEYS, 1.0, 2, 5) == 2
        assert lower_bound(KEYS, 100.0, 2, 5) == 5

    def test_counts_comparisons(self):
        stats = IndexStats()
        lower_bound(KEYS, 8.0, 0, KEYS.size, stats)
        assert stats.comparisons > 0


class TestBoundedBinarySearch:
    def test_exact_prediction_zero_error(self):
        for i, k in enumerate(KEYS):
            if i > 0 and KEYS[i - 1] == k:
                continue
            assert bounded_binary_search(KEYS, float(k), i, 0) == i

    def test_prediction_off_by_error(self):
        assert bounded_binary_search(KEYS, 13.0, 3, 2) == 5
        assert bounded_binary_search(KEYS, 13.0, 7, 2) == 5

    def test_window_clamped_to_array(self):
        assert bounded_binary_search(KEYS, 1.0, 0, 100) == 0
        assert bounded_binary_search(KEYS, 34.0, KEYS.size - 1, 100) == KEYS.size - 1

    def test_records_correction_width(self):
        stats = IndexStats()
        bounded_binary_search(KEYS, 8.0, 4, 3, stats)
        assert stats.corrections == 7  # window width 2*3+1


class TestExponentialSearch:
    @pytest.mark.parametrize("predicted", [0, 3, 7])
    def test_finds_correct_position_from_any_prediction(self, predicted):
        for key, expect in [(1.0, 0), (3.0, 1), (4.0, 3), (34.0, 7), (50.0, 8), (0.0, 0)]:
            assert exponential_search(KEYS, key, predicted) == expect, (key, predicted)

    def test_empty_array(self):
        assert exponential_search(np.empty(0), 5.0, 0) == 0

    def test_cost_scales_with_prediction_error(self):
        keys = np.arange(10000, dtype=np.float64)
        near = IndexStats()
        far = IndexStats()
        exponential_search(keys, 5000.0, 4999, near)
        exponential_search(keys, 5000.0, 0, far)
        assert far.comparisons > near.comparisons

    @settings(max_examples=80, deadline=None)
    @given(
        keys=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                      max_size=200).map(lambda xs: np.array(sorted(xs))),
        key=st.floats(-1e6, 1e6, allow_nan=False),
        predicted=st.integers(min_value=-5, max_value=250),
    )
    def test_property_matches_searchsorted(self, keys, key, predicted):
        expect = int(np.searchsorted(keys, key, side="left"))
        assert exponential_search(keys, key, predicted) == expect

