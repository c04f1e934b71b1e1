"""``LearnedColumn.locate`` is ``searchsorted(side="left")``, ties included.

Sorted keys with long runs of equal values (integer grids, all-equal
columns) are where a segment anchored inside a run predicts past the
run's start; the column routes to the last segment anchored strictly
below the query, which keeps the start inside the error window.  The
batch twins must answer row for row what the scalar calls answer,
non-finite queries included.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interfaces import IndexStats
from repro.models.pla import LearnedColumn, segment_stream

epsilons = st.sampled_from([1, 4, 32, 64])

grid_keys = st.tuples(st.integers(1, 30), st.integers(1, 60), st.integers(-5, 5)).flatmap(
    lambda t: st.lists(st.integers(0, t[0]), min_size=1, max_size=500).map(
        lambda xs: np.sort(np.array(xs, dtype=np.float64)) * t[1] + t[2]))
equal_keys = st.tuples(st.integers(1, 400), st.floats(-1e6, 1e6)).map(
    lambda t: np.full(t[0], t[1]))
wide_keys = st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1,
                     max_size=400).map(lambda xs: np.sort(np.array(xs)))
sorted_keys = st.one_of(grid_keys, equal_keys, wide_keys)

def probes(keys: np.ndarray) -> list[float]:
    """Every key, every midpoint between neighbours, and both far ends."""
    distinct = np.unique(keys)
    mids = (distinct[:-1] + distinct[1:]) / 2
    span = float(distinct[-1] - distinct[0]) or 1.0
    ends = [float(distinct[0]) - span, float(distinct[0]) - 0.5,
            float(distinct[-1]) + 0.5, float(distinct[-1]) + span]
    return distinct.tolist() + mids.tolist() + ends


class TestLocate:
    @settings(max_examples=150, deadline=None)
    @given(keys=sorted_keys, epsilon=epsilons)
    def test_locate_is_searchsorted_left(self, keys, epsilon):
        column = LearnedColumn(keys, epsilon)
        stats = IndexStats()
        for q in probes(keys) + [-np.inf, np.inf]:
            assert column.locate(keys, q, stats) == int(np.searchsorted(keys, q, "left")), q

    @settings(max_examples=150, deadline=None)
    @given(keys=sorted_keys, epsilon=epsilons)
    def test_locate_batch_is_locate_per_row(self, keys, epsilon):
        column = LearnedColumn(keys, epsilon)
        qs = np.array(probes(keys) + [-np.inf, np.inf, np.nan])
        stats = IndexStats()
        rows = [column.locate(keys, float(q), stats) for q in qs]
        assert column.locate_batch(keys, qs, stats).tolist() == rows
        assert rows[-1] == keys.size  # NaN orders after every key
        assert column.route_batch(qs).tolist() == [column.route(float(q)) for q in qs]

    def test_nan_answers_the_end_of_the_column(self):
        keys = np.arange(1000, dtype=np.float64)
        column = LearnedColumn(keys, 4)
        assert column.locate(keys, float("nan"), IndexStats()) == keys.size

    def test_integer_keys_route_in_their_own_dtype(self):
        codes = np.repeat(np.arange(0, 1 << 40, 1 << 30, dtype=np.int64), 50)
        column = LearnedColumn(codes, 4)
        assert column.keys.dtype == np.int64
        qs = np.unique(codes)
        stats = IndexStats()
        assert column.locate_batch(codes, qs, stats).tolist() == \
            np.searchsorted(codes, qs, "left").tolist()
        assert [column.locate(codes, int(q), stats) for q in qs] == \
            np.searchsorted(codes, qs, "left").tolist()


class TestModel:
    def test_segments_are_segment_streams(self):
        keys = np.sort(np.random.default_rng(0).lognormal(size=5000))
        column = LearnedColumn(keys, 16)
        segments = segment_stream(keys, 16.0)
        assert len(column) == len(segments)
        assert column.size_bytes == sum(seg.size_bytes for seg in segments)
        assert column.keys.tolist() == [seg.key for seg in segments]
        assert column.firsts.tolist() == [seg.first for seg in segments]
        assert column.lasts.tolist() == [seg.last for seg in segments]

    def test_pickle_holds_parameters_only_and_round_trips(self):
        keys = np.sort(np.random.default_rng(1).uniform(0, 1e6, 20000))
        column = LearnedColumn(keys, 8)
        restored = pickle.loads(pickle.dumps(column))
        assert len(pickle.dumps(column)) < 64 * len(column) + 1024
        qs = np.random.default_rng(2).uniform(0, 1e6, 300)
        assert restored.locate_batch(keys, qs, IndexStats()).tolist() == \
            column.locate_batch(keys, qs, IndexStats()).tolist()
        assert restored.locate(keys, float(qs[0]), IndexStats()) == \
            column.locate(keys, float(qs[0]), IndexStats())

    def test_counters(self):
        keys = np.arange(10000, dtype=np.float64)
        column = LearnedColumn(keys, 8)
        stats = IndexStats()
        column.locate(keys, 1234.0, stats)
        assert stats.model_predictions == 1
        assert 0 < stats.corrections <= 2 * (8 + 1) + 1
        column.locate_batch(keys, np.arange(5.0), stats)
        assert stats.model_predictions == 6

    def test_empty_column(self):
        column = LearnedColumn(np.empty(0), 4)
        assert len(column) == 0 and column.size_bytes == 0
