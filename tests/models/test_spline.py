"""RadixSpline's greedy corridor: ``spline_knots`` and the column through its knots.

``spline_knots`` runs the corridor on the block cone kernel; the
one-point-at-a-time loop it replaced lives in
:mod:`tests.models.spline_reference` as the oracle, and the knots must
equal it by ``repr``.  ``LearnedColumn.through`` is the spline model:
the knots are its anchors and its epsilon is the measured error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sanitize
from repro.core.interfaces import IndexStats
from repro.data import load_1d
from repro.models.pla import LearnedColumn, spline_knots
from tests.models.spline_reference import reference_spline_knots

distinct_sorted_keys = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    min_size=2, max_size=300, unique=True,
).map(lambda xs: np.array(sorted(xs)))

# The strategies of test_pla_kernel.py: long duplicate runs, wide floats,
# integer grids, and gaps down to the smallest subnormal.
tie_keys = st.lists(st.integers(0, 40), min_size=1, max_size=400).map(
    lambda xs: np.sort(np.array(xs, dtype=np.float64)))
wide_keys = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    min_size=1, max_size=400,
).map(lambda xs: np.sort(np.array(xs)))
grid_keys = st.tuples(st.integers(1, 30), st.integers(1, 60), st.integers(-5, 5)).flatmap(
    lambda t: st.lists(st.integers(0, t[0]), min_size=1, max_size=400).map(
        lambda xs: np.sort(np.array(xs, dtype=np.float64)) * t[1] + t[2]))
subnormal_keys = st.lists(st.sampled_from([0.0, 5e-324, 1e-320, 1e-300, 1.0, 3.0]),
                          min_size=1, max_size=200).map(np.cumsum)
errors = st.sampled_from([0, 1, 4, 32])


def assert_same_knots(keys, max_error):
    knot_keys, knot_positions = spline_knots(keys, max_error)
    got = list(zip(knot_keys.tolist(), knot_positions.tolist()))
    assert repr(got) == repr(reference_spline_knots(keys, max_error))
    return knot_keys, knot_positions


def column(keys, max_error):
    return LearnedColumn.through(keys, *spline_knots(keys, max_error))


def predictions(col, qs):
    qs = np.asarray(qs, dtype=np.float64)
    return col.predict_batch(col.route_batch(qs), qs)


class TestAgainstReferenceLoop:
    @settings(max_examples=120, deadline=None)
    @given(keys=st.one_of(tie_keys, wide_keys, grid_keys, subnormal_keys), max_error=errors)
    def test_property_equal_knots(self, keys, max_error):
        assert_same_knots(keys, max_error)

    @pytest.mark.parametrize("dataset", ["uniform", "books", "osm"])
    @pytest.mark.parametrize("max_error", [4, 32])
    def test_e2_datasets(self, dataset, max_error):
        assert_same_knots(np.sort(load_1d(dataset, 20000, seed=1)), max_error)

    def test_overflowing_and_subnormal_gaps(self):
        for keys in (np.array([-1.7e308, -1e308, 0.0, 5e-324, 1e-300, 1e308, 1.7e308]),
                     np.cumsum([0.0, 5e-324, 5e-324, 1.0, 1e-320, 2.0, 5e-324])):
            for max_error in (0, 1, 4, 64):
                assert_same_knots(keys, max_error)

    def test_long_corridors_cross_doubling_blocks(self):
        keys = np.arange(100_000, dtype=np.float64) * 3.5 + 7
        keys[50_000:] += 1e6  # one jump: a long piece per side, a short one across it
        knot_keys, knot_positions = assert_same_knots(keys, 8)
        assert knot_keys.size == 4 and knot_positions[1] == 49_999.0

    def test_all_equal_keys(self):
        for n in (1, 2, 11, 500):
            knot_keys, knot_positions = assert_same_knots(np.full(n, 7.0), 4)
            assert knot_keys.tolist() == [7.0] and knot_positions.tolist() == [0.0]


class TestSplineKnots:
    def test_linear_data_needs_two_knots(self):
        knot_keys, _ = spline_knots(np.arange(500, dtype=np.float64), 2)
        assert knot_keys.size == 2

    def test_error_bound_on_random_distinct_keys(self):
        keys = np.sort(np.random.default_rng(0).uniform(0, 1e9, 4000))
        for max_error in (2, 8, 32):
            worst = np.abs(predictions(column(keys, max_error), keys) - np.arange(keys.size)).max()
            assert worst <= max_error + 1e-6

    def test_knots_are_strictly_increasing(self):
        keys = np.sort(np.random.default_rng(1).lognormal(0, 2, 3000))
        knot_keys, knot_positions = spline_knots(keys, 16)
        assert np.all(np.diff(knot_keys) > 0) and np.all(np.diff(knot_positions) > 0)

    def test_predictions_are_monotone(self):
        keys = np.sort(np.random.default_rng(2).uniform(0, 1e6, 1000))
        preds = predictions(column(keys, 8), np.linspace(keys[0], keys[-1], 500))
        assert np.all(np.diff(preds) >= -1e-9)

    def test_tighter_error_means_more_knots(self):
        keys = np.sort(np.random.default_rng(3).zipf(1.4, 2000).cumsum().astype(np.float64))
        assert spline_knots(keys, 2)[0].size >= spline_knots(keys, 64)[0].size

    def test_single_key(self):
        knot_keys, knot_positions = spline_knots(np.array([42.0]), 4)
        assert knot_keys.tolist() == [42.0] and knot_positions.tolist() == [0.0]
        assert predictions(column(np.array([42.0]), 4), [42.0]).tolist() == [0.0]

    def test_empty_keys(self):
        knot_keys, knot_positions = spline_knots(np.array([]), 4)
        assert knot_keys.size == 0 and knot_positions.size == 0

    def test_out_of_range_queries_clamp(self):
        keys = np.arange(100, dtype=np.float64)
        assert predictions(column(keys, 4), [-50.0, 1e9]).tolist() == [0.0, 99.0]

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            spline_knots(np.array([1.0]), -1)

    @settings(max_examples=60, deadline=None)
    @given(keys=distinct_sorted_keys, max_error=st.integers(min_value=1, max_value=32))
    def test_property_error_bound(self, keys, max_error):
        assert column(keys, max_error).epsilon <= max_error

    @settings(max_examples=60, deadline=None)
    @given(keys=distinct_sorted_keys)
    def test_property_endpoints_are_knots(self, keys):
        knot_keys, knot_positions = spline_knots(keys, 8)
        assert knot_keys[0] == keys[0] and knot_positions[0] == 0
        assert knot_keys[-1] == keys[-1] and knot_positions[-1] == keys.size - 1

    def test_sanitizer_checks_the_corridor_bound(self, monkeypatch):
        keys = np.sort(np.random.default_rng(4).lognormal(0, 2, 3000))
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        spline_knots(keys, 4)
        from repro.models import pla
        monkeypatch.setattr(pla, "_corridor_error", lambda keys, bases: 99.0)
        with pytest.raises(sanitize.SanitizeError, match="corridor bound"):
            spline_knots(keys, 4)


class TestColumnThroughKnots:
    @settings(max_examples=80, deadline=None)
    @given(keys=st.one_of(tie_keys, grid_keys, distinct_sorted_keys),
           max_error=st.sampled_from([1, 4, 32]))
    def test_locate_is_searchsorted_left(self, keys, max_error):
        col = column(keys, max_error)
        distinct = np.unique(keys)
        qs = np.concatenate([distinct, (distinct[:-1] + distinct[1:]) / 2,
                             [distinct[0] - 1, distinct[-1] + 1, -np.inf, np.inf, np.nan]])
        stats = IndexStats()
        want = np.searchsorted(keys, qs, "left").tolist()
        assert [col.locate(keys, float(q), stats) for q in qs] == want
        assert col.locate_batch(keys, qs, stats).tolist() == want

    def test_anchors_are_the_knots(self):
        keys = np.sort(np.random.default_rng(5).uniform(0, 1e6, 5000))
        knot_keys, knot_positions = spline_knots(keys, 8)
        col = LearnedColumn.through(keys, knot_keys, knot_positions)
        assert len(col) == knot_keys.size
        assert col.keys.tolist() == knot_keys.tolist()
        assert col.firsts.tolist() == knot_positions.astype(int).tolist()
        assert col.slopes[-1] == col.slopes[-2]

    def test_epsilon_is_the_measured_error(self):
        keys = np.repeat(np.arange(50, dtype=np.float64), 40)  # ties void the corridor bound
        col = column(keys, 4)
        route, predict = col.route, col.predict
        worst = 0.0
        for i, k in enumerate(keys.tolist()):
            seg = route(k)
            _, _, _, first, end = col._rows[seg]
            worst = max(worst, abs(min(max(predict(seg, k), first), end) - i))
        assert col.epsilon == int(np.ceil(worst)) > 4
