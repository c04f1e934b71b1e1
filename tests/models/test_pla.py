"""Tests for the epsilon-bounded piecewise-linear approximation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.pla import (
    Segment,
    segment_greedy_splits,
    segment_stream,
    verify_epsilon,
)

sorted_keys = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    min_size=1, max_size=300,
).map(lambda xs: np.array(sorted(xs)))


class TestSegmentStream:
    def test_single_key(self):
        segs = segment_stream(np.array([5.0]), 4)
        assert len(segs) == 1
        assert segs[0].first == 0 and segs[0].last == 1

    def test_perfectly_linear_data_is_one_segment(self):
        keys = np.arange(1000, dtype=np.float64) * 3.5 + 7
        segs = segment_stream(keys, 1)
        assert len(segs) == 1
        assert verify_epsilon(keys, segs, 1) <= 1

    def test_two_slopes_give_two_segments_at_tight_epsilon(self):
        keys = np.concatenate([np.arange(100) * 1.0, 100 + np.arange(100) * 100.0])
        segs = segment_stream(keys, 1)
        assert len(segs) >= 2

    def test_epsilon_guarantee_on_random_data(self):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.lognormal(0, 2, 5000) * 1e6)
        for epsilon in (1, 4, 16, 64):
            segs = segment_stream(keys, epsilon)
            # Exact in real arithmetic; floats may exceed by a few ulps.
            assert verify_epsilon(keys, segs, epsilon) <= epsilon * (1 + 1e-9)

    def test_segments_tile_the_array(self):
        rng = np.random.default_rng(1)
        keys = np.sort(rng.uniform(0, 1e9, 2000))
        segs = segment_stream(keys, 8)
        assert segs[0].first == 0
        assert segs[-1].last == keys.size
        for a, b in zip(segs, segs[1:]):
            assert a.last == b.first

    def test_larger_epsilon_never_needs_more_segments(self):
        rng = np.random.default_rng(2)
        keys = np.sort(rng.zipf(1.5, 3000).cumsum().astype(np.float64))
        counts = [len(segment_stream(keys, e)) for e in (2, 8, 32, 128)]
        assert counts == sorted(counts, reverse=True)

    def test_duplicate_keys_within_epsilon_stay_in_segment(self):
        keys = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
        segs = segment_stream(keys, 4)
        assert len(segs) == 1

    def test_duplicate_run_exceeding_epsilon_breaks(self):
        keys = np.array([1.0] + [2.0] * 10 + [3.0])
        segs = segment_stream(keys, 1)
        assert len(segs) >= 2

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            segment_stream(np.array([1.0]), -1)

    def test_empty_input(self):
        assert segment_stream(np.array([]), 4) == []

    def test_custom_positions(self):
        keys = np.arange(10, dtype=np.float64)
        positions = np.arange(10, dtype=np.float64) * 7
        segs = segment_stream(keys, 1, positions=positions)
        assert abs(segs[0].predict(3.0) - 21.0) <= 1

    @settings(max_examples=60, deadline=None)
    @given(keys=sorted_keys, epsilon=st.integers(min_value=1, max_value=64))
    def test_property_epsilon_always_holds(self, keys, epsilon):
        segs = segment_stream(keys, epsilon)
        # Exact in real arithmetic; floats may exceed by a few ulps.
        assert verify_epsilon(keys, segs, epsilon) <= epsilon * (1 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(keys=sorted_keys)
    def test_property_full_coverage(self, keys):
        segs = segment_stream(keys, 8)
        covered = sum(len(s) for s in segs)
        assert covered == keys.size


class TestVerifyEpsilon:
    """The sanitizer's error check: warning-free, and NaN never passes."""

    def test_slope_zero_segment_predicts_its_anchor(self):
        keys = np.array([-1.7e308, 0.0, 1.7e308])   # key offsets overflow
        seg = Segment(key=-1.7e308, slope=0.0, anchor_pos=1.0, first=0, last=3)
        with np.errstate(all="raise"):
            assert verify_epsilon(keys, [seg], 1) == 1.0

    def test_slope_zero_segment_at_minus_inf_shows_its_error(self):
        keys = np.array([-np.inf, 1.0, 2.0, 3.0])
        seg = Segment(key=-np.inf, slope=0.0, anchor_pos=0.0, first=0, last=4)
        with np.errstate(all="raise"):
            assert verify_epsilon(keys, [seg], 1) == 3.0

    def test_nan_error_is_not_dropped(self):
        keys = np.arange(4.0)
        segs = [Segment(key=0.0, slope=1.0, anchor_pos=0.0, first=0, last=2),
                Segment(key=2.0, slope=float("nan"), anchor_pos=2.0, first=2, last=4)]
        worst = verify_epsilon(keys, segs, 1)
        assert np.isnan(worst) and not worst <= 1 + 1.0

    def test_matches_a_per_segment_loop(self):
        rng = np.random.default_rng(3)
        keys = np.sort(rng.lognormal(0, 2, 3000))
        segs = segment_stream(keys, 8)
        loop = max(float(np.abs(s.slope * (keys[s.first:s.last] - s.key) + s.anchor_pos
                                - np.arange(s.first, s.last)).max()) for s in segs)
        assert verify_epsilon(keys, segs, 8) == loop


class TestGreedySplits:
    def test_fixed_size_partitioning(self):
        keys = np.arange(100, dtype=np.float64)
        segs = segment_greedy_splits(keys, 32)
        assert [len(s) for s in segs] == [32, 32, 32, 4]

    def test_rejects_bad_segment_size(self):
        with pytest.raises(ValueError):
            segment_greedy_splits(np.arange(4.0), 0)

    def test_segment_predict_endpoints_exact(self):
        keys = np.array([0.0, 10.0, 20.0, 40.0])
        segs = segment_greedy_splits(keys, 4)
        seg = segs[0]
        assert seg.predict(0.0) == pytest.approx(0.0)
        assert seg.predict(40.0) == pytest.approx(3.0)


class TestSegmentDataclass:
    def test_len(self):
        seg = Segment(key=0.0, slope=1.0, anchor_pos=0.0, first=3, last=9)
        assert len(seg) == 6

    def test_size_bytes_constant(self):
        seg = Segment(key=0.0, slope=1.0, anchor_pos=0.0, first=0, last=1)
        assert seg.size_bytes == 40

    def test_anchor_form_is_numerically_stable(self):
        # Huge anchor key + huge slope: the anchor form stays finite
        # where slope * key + intercept would overflow.
        seg = Segment(key=1e9, slope=1e300, anchor_pos=5.0, first=0, last=2)
        assert np.isfinite(seg.predict(1e9))
        assert seg.predict(1e9) == 5.0
