"""The windowed last-mile search: two arms, one answer.

``windowed_lower_bound`` answers a batch either by probing only inside
each row's window (``_window_search``) or with one global
``np.searchsorted`` clipped into the window, whichever ``_use_window``
predicts is cheaper.  The arms must return the same array on every
input — and the same array as a loop of scalar ``bounded_binary_search``
calls — so the predicate is a pure cost decision.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interfaces import IndexStats
from repro.multidim.zm_index import ZMIndex
from repro.onedim import _search
from repro.onedim._search import (
    _use_window,
    _window_search,
    bounded_binary_search,
    bounded_search_batch,
    exponential_search,
    windowed_lower_bound,
)
from repro.onedim.pgm import PGMIndex
from repro.onedim.radix_spline import RadixSplineIndex
from repro.onedim.rmi import RMIIndex

COUNTERS = ("corrections", "comparisons", "model_predictions", "nodes_visited", "keys_scanned")


def _global_arm(keys, queries, lo, hi):
    return np.clip(np.searchsorted(keys, queries, side="left"), lo, hi)


def _sorted_keys(rng, n, dtype, distinct):
    """``n`` sorted keys drawn from ``distinct`` values (so: duplicates)."""
    if dtype == "int64":
        # Morton-code-sized: spread over 62 bits.
        pool = rng.integers(0, 2**62, max(distinct, 1), dtype=np.int64)
    else:
        pool = rng.uniform(-1e6, 1e6, max(distinct, 1))
    return np.sort(rng.choice(pool, n)) if n else pool[:0]


def _queries(rng, keys, m):
    """Stored keys, neighbours of stored keys, and keys off both ends."""
    if keys.size == 0:
        return rng.uniform(-1.0, 1.0, m).astype(keys.dtype)
    picks = rng.choice(keys, m)
    if keys.dtype == np.int64:
        return np.clip(picks + rng.integers(-2, 3, m), 0, None)
    return picks + rng.choice([0.0, 0.0, -0.5, 0.5, 1e7, -1e7], m)


@st.composite
def search_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 7, 64, 300]))
    m = draw(st.sampled_from([0, 1, 5, 40, 200]))
    dtype = draw(st.sampled_from(["float64", "int64"]))
    distinct = draw(st.sampled_from([1, 3, n // 2 + 1, 4 * n + 1]))
    keys = _sorted_keys(rng, n, dtype, distinct)
    queries = _queries(rng, keys, m)
    eps = draw(st.sampled_from([0, 1, 4, 33]))
    errors = rng.integers(0, eps + 1, m) if draw(st.booleans()) else eps
    # Predictions are positions (clamped like every caller clamps them)
    # but may miss the true position by up to 3 * eps: a violated bound.
    true = np.searchsorted(keys, queries, side="left")
    predicted = np.clip(true + rng.integers(-3 * eps - 1, 3 * eps + 2, m), 0, max(n - 1, 0))
    return keys, queries, predicted, errors


class TestArmsAgree:
    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_each_arm_equals_a_loop_of_scalar_searches(self, case):
        keys, queries, predicted, errors = case
        per_row = np.broadcast_to(errors, predicted.shape)
        scalar_stats = IndexStats()
        expected = [
            bounded_binary_search(keys, q, int(p), int(e), scalar_stats)
            for q, p, e in zip(queries.tolist(), predicted, per_row)
        ]
        arm_stats = []
        for windowed in (True, False):
            stats = IndexStats()
            with mock.patch.object(_search, "_use_window", return_value=windowed):
                got = bounded_search_batch(keys, queries, predicted, errors, stats)
            assert got.dtype == np.int64
            assert got.tolist() == expected
            assert stats.corrections == scalar_stats.corrections
            arm_stats.append(stats.snapshot())
        assert arm_stats[0] == arm_stats[1]
        # ... and whichever arm the predicate really picks.
        assert bounded_search_batch(keys, queries, predicted, errors).tolist() == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 9, 120]),
           st.sampled_from([0, 1, 6, 90]), st.sampled_from(["float64", "int64"]))
    def test_arms_agree_on_wild_predictions_and_inverted_windows(self, seed, n, m, dtype):
        """Unclamped predictions put windows off either end of the array
        (``lo > hi``); ``clip`` then answers ``hi`` and so must the loop."""
        rng = np.random.default_rng(seed)
        keys = _sorted_keys(rng, n, dtype, n // 3 + 1)
        queries = _queries(rng, keys, m)
        predicted = rng.integers(-2 * n - 5, 2 * n + 6, m)
        errors = rng.integers(0, 5, m)
        lo = np.maximum(predicted - errors, 0)
        hi = np.minimum(predicted + errors + 1, n)
        expected = _global_arm(keys, queries, lo, hi)
        for windowed in (True, False):
            with mock.patch.object(_search, "_use_window", return_value=windowed):
                assert np.array_equal(windowed_lower_bound(keys, queries, lo, hi), expected)
                got = bounded_search_batch(keys, queries, predicted, errors)
            assert np.array_equal(got, expected)

    def test_arms_agree_on_nan_and_infinite_queries(self):
        keys = np.array([-5.0, 0.0, 0.0, 1.5, 1.5, 1.5, 7.0, 9.0, 40.0, 41.0])
        queries = np.array([np.nan, np.inf, -np.inf, 1.5, np.nan, -np.inf, np.inf, 0.0])
        lo = np.array([0, 0, 0, 2, 3, 4, 9, 0])
        hi = np.array([10, 10, 10, 7, 6, 9, 10, 0])
        expected = _global_arm(keys, queries, lo, hi)
        # NaN orders after every key, like +inf: the window's end.
        assert expected.tolist() == [10, 10, 0, 3, 6, 4, 10, 0]
        assert np.array_equal(_window_search(keys, queries, lo, hi, 10), expected)
        assert np.array_equal(windowed_lower_bound(keys, queries, lo, hi), expected)

    def test_empty_keys_and_empty_batches(self):
        none = np.empty(0, dtype=np.int64)
        assert windowed_lower_bound(np.empty(0), np.empty(0), none, none).size == 0
        assert windowed_lower_bound(np.arange(5.0), np.empty(0), none, none).size == 0
        zeros = np.zeros(3, dtype=np.int64)
        got = windowed_lower_bound(np.empty(0), np.array([1.0, np.nan, -1.0]), zeros, zeros)
        assert got.tolist() == [0, 0, 0]


class TestPredicate:
    def test_small_batches_and_small_arrays_keep_the_global_search(self):
        assert not _use_window(0, 10**6, 131)
        assert not _use_window(1, 10**7, 3)
        assert not _use_window(256, 5_000, 131)      # E17 --smoke scale
        assert not _use_window(10**5, 0, 0)
        assert not _use_window(10**4, 100, 131)      # PGM's upper levels
        assert not _use_window(10**4, 4096, 10**6)   # window as wide as the array

    def test_large_batches_over_large_arrays_search_the_window(self):
        assert _use_window(2304, 10**6, 300)         # lib_batch's rmi.lookup_batch
        assert _use_window(10**4, 10**5, 131)        # E17 full scale
        assert _use_window(512, 10**7, 131)

    def test_results_do_not_change_across_the_crossover(self):
        rng = np.random.default_rng(3)
        keys = np.sort(rng.uniform(0.0, 1e9, 300_000))
        flip = next(m for m in range(1, 5000) if _use_window(m, keys.size, 131))
        assert 16 < flip < 1024
        for m in (flip - 1, flip):
            queries = rng.choice(keys, m)
            predicted = np.clip(np.searchsorted(keys, queries) + rng.integers(-64, 65, m),
                                0, keys.size - 1)
            with mock.patch.object(_search, "_window_search",
                                   wraps=_search._window_search) as spy:
                got = bounded_search_batch(keys, queries, predicted, 65)
            assert spy.call_count == (m == flip)
            assert np.array_equal(got, np.searchsorted(keys, queries))


class TestKernelsOnTheWindowedArm:
    def test_rmi_leaf_boundary_violations_match_scalar_row_by_row(self):
        # Two far-apart clusters under 8 leaves: queries in the gap route
        # to leaves that saw no key (window [0, 1)), so the bounded search
        # cannot contain them and the violation fallback must fire.
        rng = np.random.default_rng(17)
        keys = np.unique(np.concatenate([rng.uniform(0.0, 1e3, 30_000),
                                         rng.uniform(9e5, 1e6, 30_000)]))
        index = RMIIndex(num_models=8).build(keys)
        queries = np.concatenate([rng.uniform(2e3, 8e5, 1500), rng.choice(keys, 1500),
                                  rng.uniform(-10.0, 1.1e6, 500)])
        scalar_index = RMIIndex(num_models=8).build(keys)
        with mock.patch("repro.onedim.rmi.exponential_search",
                        wraps=exponential_search) as fallback:
            expected = [scalar_index.lookup(q) for q in queries.tolist()]
        assert fallback.call_count > 1000  # the inputs do force violations
        with mock.patch.object(_search, "_window_search",
                               wraps=_search._window_search) as windowed:
            got = index.lookup_batch(queries)
        assert windowed.call_count == 1
        assert got.tolist() == expected
        assert index.stats.keys_scanned == scalar_index.stats.keys_scanned
        assert index.stats.model_predictions == scalar_index.stats.model_predictions

    def test_counters_are_what_the_global_search_kernels_counted(self):
        """Golden counters, recorded with the pre-window kernels (global
        ``searchsorted`` + clip) on the same seeds."""
        rng = np.random.default_rng(2025)
        keys = np.unique(rng.lognormal(0.0, 2.0, 60_000))
        queries = np.concatenate([rng.choice(keys, 2500), rng.uniform(0.0, 50.0, 500)])
        # RMI's worst leaf sets its window; uniform keys keep that narrow.
        flat = np.unique(rng.uniform(0.0, 1e9, 60_000))
        flat_queries = np.concatenate([rng.choice(flat, 2500), rng.uniform(0.0, 1e9, 500)])
        points = rng.uniform(0.0, 1.0, (60_000, 2))
        probes = np.concatenate([points[rng.integers(0, 60_000, 2500)],
                                 rng.uniform(0.0, 1.0, (500, 2))])
        golden = {
            "rmi": GOLDEN_RMI, "pgm": GOLDEN_PGM,
            "radix-spline": GOLDEN_RADIX_SPLINE, "zm-index": GOLDEN_ZM,
        }
        with mock.patch.object(_search, "_window_search",
                               wraps=_search._window_search) as windowed:
            for name, index, batch in (
                ("rmi", RMIIndex().build(flat), flat_queries),
                ("pgm", PGMIndex().build(keys), queries),
                ("radix-spline", RadixSplineIndex().build(keys), queries),
            ):
                before = windowed.call_count
                index.lookup_batch(batch)
                assert windowed.call_count > before, name
                assert tuple(getattr(index.stats, c) for c in COUNTERS) == golden[name], name
            zm = ZMIndex().build(points)
            before = windowed.call_count
            zm.point_query_batch(probes)
            assert windowed.call_count > before
            assert tuple(getattr(zm.stats, c) for c in COUNTERS) == golden["zm-index"]


GOLDEN_RMI = (85250, 0, 6000, 6000, 2500)
GOLDEN_PGM = (431601, 41310, 9000, 9000, 2500)
GOLDEN_RADIX_SPLINE = (201000, 11298, 3000, 0, 2500)
GOLDEN_ZM = (200973, 20998, 3000, 0, 2500)


class TestRangeScan:
    @pytest.mark.parametrize("factory", [RMIIndex, PGMIndex, RadixSplineIndex])
    def test_range_query_is_the_slice_between_two_positions(self, factory):
        rng = np.random.default_rng(8)
        keys = np.unique(rng.uniform(0.0, 1e4, 3000))
        values = [f"v{i}" for i in range(keys.size)]
        index = factory().build(keys, values)
        for low, high in [(100.0, 900.0), (float(keys[5]), float(keys[5])),
                          (float(keys[7]), float(keys[70])), (-50.0, float(keys[0])),
                          (float(keys[-1]), 2e4), (-1.0, -0.5), (2e4, 3e4),
                          (500.0, np.inf), (300.0, np.nan)]:
            index.stats.reset_counters()
            got = index.range_query(low, high)
            want = [(float(k), v) for k, v in zip(keys, values) if low <= k <= high]
            assert got == want, (low, high)
            assert all(type(k) is float for k, _ in got)
            assert index.stats.keys_scanned == len(want)
