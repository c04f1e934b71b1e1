"""``segment_stream`` equals the scalar shrinking-cone loop, segment for segment.

The kernel evaluates cones block-wise and, for short segments, from a
table of speculative anchors; :mod:`tests.models.pla_reference` keeps the
one-point-at-a-time loop as the oracle.  Segments are compared by
``repr`` so that NaN keys compare equal and signed zeros do not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import pla
from repro.models.pla import segment_stream
from tests.models.pla_reference import reference_segment_stream


def assert_same(keys, epsilon, positions=None):
    got = segment_stream(keys, epsilon, positions=positions)
    want = reference_segment_stream(keys, epsilon, positions=positions)
    assert repr(got) == repr(want)
    return got


epsilons = st.sampled_from([0, 0.5, 1, 2, 4, 16, 64])

# Keys drawn from a small pool give long duplicate runs; wide floats give
# distinct keys.  Both are sorted, as every caller passes them.
tie_keys = st.lists(st.integers(0, 40), min_size=1, max_size=400).map(
    lambda xs: np.sort(np.array(xs, dtype=np.float64)))
wide_keys = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    min_size=1, max_size=400,
).map(lambda xs: np.sort(np.array(xs)))


class TestAgainstReferenceLoop:
    @settings(max_examples=80, deadline=None)
    @given(keys=st.one_of(tie_keys, wide_keys), epsilon=epsilons)
    def test_property_equal_segments(self, keys, epsilon):
        assert_same(keys, epsilon)

    @settings(max_examples=40, deadline=None)
    @given(keys=tie_keys, epsilon=epsilons, seed=st.integers(0, 2**16))
    def test_property_equal_with_positions(self, keys, epsilon, seed):
        rng = np.random.default_rng(seed)
        positions = np.sort(rng.uniform(0, 3 * keys.size, keys.size))
        assert_same(keys, epsilon, positions=positions)

    def test_empty_input(self):
        assert segment_stream(np.array([]), 4) == reference_segment_stream(np.array([]), 4) == []

    def test_single_key(self):
        segs = assert_same(np.array([5.0]), 4)
        assert len(segs) == 1 and segs[0].slope == 0.0

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 500])
    @pytest.mark.parametrize("epsilon", [0, 4])
    def test_all_equal_keys(self, n, epsilon):
        assert_same(np.full(n, 7.0), epsilon)

    def test_epsilon_zero_distinct_keys(self):
        keys = np.sort(np.random.default_rng(3).uniform(0, 1e9, 5000))
        segs = assert_same(keys, 0)
        assert len(segs) > 2000  # mostly two-point segments: the table path

    def test_tie_heavy_integer_keys(self):
        rng = np.random.default_rng(4)
        for epsilon in (1, 2, 4):
            assert_same(np.sort(rng.integers(0, 1300, 10000)).astype(np.float64), epsilon)

    def test_long_segments_cross_doubling_blocks(self):
        keys = np.arange(100_000, dtype=np.float64) * 3.5 + 7
        keys[50_000:] += 1e6  # one jump: two very long segments
        segs = assert_same(keys, 8)
        assert len(segs) == 2

    def test_mixed_segment_lengths(self):
        rng = np.random.default_rng(5)
        keys = np.sort(np.concatenate([
            rng.integers(0, 300, 3000).astype(np.float64),  # short, tied
            1e4 + np.arange(20_000, dtype=np.float64),      # one long run
            rng.lognormal(12, 1, 5000),                     # mid-length
        ]))
        assert_same(keys, 4)

    def test_custom_positions(self):
        keys = np.arange(10, dtype=np.float64)
        assert_same(keys, 1, positions=np.arange(10, dtype=np.float64) * 7)

    def test_denormal_gaps_force_cuts(self):
        keys = np.cumsum(np.array([0.0, 5e-324, 5e-324, 1.0, 1e-320, 2.0, 5e-324]))
        for epsilon in (0, 1, 4):
            assert_same(keys, epsilon)

    def test_overflowing_slopes_force_cuts(self):
        keys = np.array([-1.7e308, -1e308, 0.0, 5e-324, 1e-300, 1e308, 1.7e308])
        for epsilon in (0, 1, 64):
            segs = assert_same(keys, epsilon)
            assert all(np.isfinite(s.slope) for s in segs)

    def test_non_finite_keys(self):
        # The loop's answer here holds a slope-0 segment anchored at -inf
        # whose error is 5 > epsilon + 1: no segment models such keys.
        keys = np.array([-np.inf, -np.inf, 1.0, 2.0, 3.0, np.inf, np.inf, np.nan, np.nan])
        for bad in (keys, keys[2:7], keys[2:], keys[:5]):
            with pytest.raises(ValueError, match="finite"):
                segment_stream(bad, 2)

    @pytest.mark.parametrize("n, calls", [(64, 4), (256, 6)])
    def test_small_builds_take_few_kernel_calls(self, monkeypatch, n, calls):
        # A block may hold _TABLE_CELLS rows however short the input, so
        # a one- or two-segment build is a handful of calls.
        keys = np.sort(np.random.default_rng(1).lognormal(0.0, 1.0, n))
        seen = []
        cones = pla._cones
        monkeypatch.setattr(pla, "_cones", lambda *args: (seen.append(args[3]), cones(*args))[1])
        segs = assert_same(keys, 64)
        assert len(segs) <= 2 and len(seen) == calls

    def test_fuzz_shapes(self):
        rng = np.random.default_rng(6)
        for trial in range(300):
            n = int(rng.integers(1, 200))
            keys = np.sort(rng.choice(rng.uniform(0, 100, max(1, n // int(rng.integers(1, 8)))), n))
            positions = None if trial % 3 else np.sort(rng.uniform(0, 2 * n, n))
            assert_same(keys, float(rng.choice([0, 1, 2, 4, 16])), positions=positions)
