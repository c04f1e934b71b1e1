"""Cross-index contract tests: every 1-d index, every distribution.

These tests treat each index as a black box implementing the
:class:`OneDimIndex` interface and check it against the sorted-array
oracle — the same harness the benchmarks rely on.
"""

import numpy as np
import pytest

from repro.bench.runner import MUTABLE_ONE_DIM_FACTORIES, ONE_DIM_FACTORIES
from repro.data import insert_stream, load_1d, negative_lookups

ALL = list(ONE_DIM_FACTORIES)
MUTABLE = list(MUTABLE_ONE_DIM_FACTORIES)

#: Dense head, sparse tail: the column on which flat model pieces meet ±inf.
FLAT_TAIL_KEYS = np.array([0, 1, 2, 3, 4, 100, 1e3, 1e6, 1e9])


@pytest.fixture(params=ALL, ids=ALL)
def any_factory(request):
    return ONE_DIM_FACTORIES[request.param]


@pytest.fixture(params=MUTABLE, ids=MUTABLE)
def mutable_factory(request):
    return MUTABLE_ONE_DIM_FACTORIES[request.param]


class TestLookupContract:
    def test_every_key_found_uniform(self, any_factory, uniform_keys):
        index = any_factory().build(uniform_keys)
        sk = np.sort(uniform_keys)
        for i in range(0, sk.size, 137):
            assert index.lookup(float(sk[i])) == i

    def test_every_key_found_heavy_tail(self, any_factory, hard_keys):
        index = any_factory().build(hard_keys)
        sk = np.sort(hard_keys)
        for i in range(0, sk.size, 137):
            assert index.lookup(float(sk[i])) == i

    def test_negative_lookups_return_none(self, any_factory, lognormal_keys):
        index = any_factory().build(lognormal_keys)
        for q in negative_lookups(lognormal_keys, 50, seed=3):
            assert index.lookup(float(q)) is None

    def test_extreme_probes(self, any_factory, uniform_keys):
        index = any_factory().build(uniform_keys)
        assert index.lookup(-1e300) is None
        assert index.lookup(1e300) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("probe", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
    def test_infinite_probes_miss(self, any_factory, uniform_keys, probe):
        """``±inf`` and NaN are plain misses, scalar and batch alike: a
        learned model's prediction there must saturate (NaN orders after
        every key), never reach ``int()`` as an infinity or a NaN.  The
        second key set ends in a long sparse tail, so models fit flat
        pieces whose slope 0 times ``±inf`` is NaN."""
        for keys in (uniform_keys, FLAT_TAIL_KEYS):
            index = any_factory().build(keys)
            assert index.lookup(probe) is None
            assert index.contains(probe) is False
            queries = np.array([probe, float(np.sort(keys)[7])])
            assert list(index.lookup_batch(queries)) == [index.lookup(q) for q in queries]
            assert list(index.contains_batch(queries)) == [index.contains(q) for q in queries]

    def test_custom_values(self, any_factory):
        keys = [5.0, 1.0, 3.0]
        index = any_factory().build(keys, values=["e", "a", "c"])
        assert index.lookup(1.0) == "a"
        assert index.lookup(3.0) == "c"
        assert index.lookup(5.0) == "e"

    def test_single_key(self, any_factory):
        index = any_factory().build([42.0])
        assert index.lookup(42.0) == 0
        assert index.lookup(41.0) is None
        assert index.lookup(43.0) is None

    def test_two_identical_magnitude_keys(self, any_factory):
        index = any_factory().build([1.0, -1.0])
        assert index.lookup(-1.0) == 0
        assert index.lookup(1.0) == 1


class TestRangeContract:
    def test_range_matches_oracle(self, any_factory, lognormal_keys):
        index = any_factory().build(lognormal_keys)
        sk = np.sort(lognormal_keys)
        result = index.range_query(float(sk[500]), float(sk[600]))
        assert [v for _, v in result] == list(range(500, 601))

    def test_range_bounds_are_inclusive(self, any_factory):
        index = any_factory().build([1.0, 2.0, 3.0, 4.0])
        result = index.range_query(2.0, 3.0)
        assert [k for k, _ in result] == [2.0, 3.0]

    def test_range_between_keys_is_empty(self, any_factory):
        index = any_factory().build([1.0, 10.0])
        assert index.range_query(2.0, 9.0) == []

    @pytest.mark.parametrize("low, high", [(np.nan, np.inf), (-np.inf, np.nan), (np.nan, np.nan)])
    def test_nan_bound_is_empty(self, any_factory, uniform_keys, low, high):
        """No key is ``>= NaN`` or ``<= NaN``: a NaN bound selects nothing."""
        index = any_factory().build(uniform_keys)
        assert index.range_query(low, high) == []

    def test_range_starting_inside_a_tied_run(self, any_factory):
        """A run of equal keys long enough to span several leaves or
        segments: a range that starts at the run's key starts at its
        first copy.  Factories that keep one copy per key keep one here."""
        keys = np.concatenate([np.arange(200.0), np.full(300, 200.0), np.arange(201.0, 400.0)])
        index = any_factory().build(keys)
        wide = [k for k, _ in index.range_query(150.0, 250.0)]
        assert len(index.range_query(200.0, 200.0)) == wide.count(200.0) > 0

    def test_inverted_range_is_empty(self, any_factory, uniform_keys):
        index = any_factory().build(uniform_keys)
        assert index.range_query(10.0, 5.0) == []

    def test_full_range_returns_everything(self, any_factory, uniform_keys):
        index = any_factory().build(uniform_keys)
        sk = np.sort(uniform_keys)
        result = index.range_query(float(sk[0]), float(sk[-1]))
        assert len(result) == sk.size
        keys = [k for k, _ in result]
        assert keys == sorted(keys)

    def test_unbounded_range_returns_every_item(self, any_factory, uniform_keys):
        """``range_query(-inf, inf)`` is how a shard is enumerated for
        re-partitioning; a short answer there silently drops keys."""
        index = any_factory().build(uniform_keys)
        result = index.range_query(-np.inf, np.inf)
        assert [v for _, v in result] == list(range(uniform_keys.size))


class TestMutableContract:
    def test_insert_new_keys(self, mutable_factory, uniform_keys):
        index = mutable_factory().build(uniform_keys)
        fresh = insert_stream(uniform_keys, 500, seed=5)
        for i, k in enumerate(fresh):
            index.insert(float(k), ("new", i))
        for i, k in enumerate(fresh[::7]):
            assert index.lookup(float(k)) == ("new", i * 7)

    def test_inserts_do_not_disturb_existing(self, mutable_factory, uniform_keys):
        index = mutable_factory().build(uniform_keys)
        sk = np.sort(uniform_keys)
        for k in insert_stream(uniform_keys, 500, seed=6):
            index.insert(float(k), "x")
        for i in range(0, sk.size, 97):
            assert index.lookup(float(sk[i])) == i

    def test_insert_replaces_existing(self, mutable_factory, uniform_keys):
        index = mutable_factory().build(uniform_keys)
        sk = np.sort(uniform_keys)
        index.insert(float(sk[3]), "updated")
        assert index.lookup(float(sk[3])) == "updated"

    def test_delete_removes(self, mutable_factory, uniform_keys):
        index = mutable_factory().build(uniform_keys)
        sk = np.sort(uniform_keys)
        for k in sk[::211]:
            assert index.delete(float(k))
        for k in sk[::211]:
            assert index.lookup(float(k)) is None

    def test_delete_absent_returns_false(self, mutable_factory, uniform_keys):
        index = mutable_factory().build(uniform_keys)
        assert not index.delete(-999.125)

    def test_append_workload(self, mutable_factory):
        keys = load_1d("uniform", 1000, seed=9)
        index = mutable_factory().build(keys)
        appended = insert_stream(keys, 1000, seed=10, mode="append")
        for i, k in enumerate(appended):
            index.insert(float(k), i)
        for i, k in enumerate(appended[::31]):
            assert index.lookup(float(k)) == i * 31

    def test_hotspot_workload(self, mutable_factory):
        keys = load_1d("uniform", 1000, seed=11)
        index = mutable_factory().build(keys)
        hot = insert_stream(keys, 1000, seed=12, mode="hotspot")
        for i, k in enumerate(hot):
            index.insert(float(k), i)
        for i, k in enumerate(hot[::29]):
            assert index.lookup(float(k)) == i * 29

    def test_range_after_churn_is_sorted_and_complete(self, mutable_factory):
        keys = load_1d("lognormal", 1500, seed=13)
        index = mutable_factory().build(keys)
        fresh = insert_stream(keys, 700, seed=14)
        for k in fresh:
            index.insert(float(k), "n")
        sk = np.sort(keys)
        for k in sk[::9]:
            index.delete(float(k))
        everything = index.range_query(-1e300, 1e300)
        got_keys = [k for k, _ in everything]
        assert got_keys == sorted(got_keys)
        expected = (set(float(k) for k in sk) | set(float(k) for k in fresh)) - set(
            float(k) for k in sk[::9]
        )
        assert set(got_keys) == expected

    def test_build_empty_then_insert(self, mutable_factory):
        index = mutable_factory().build([])
        index.insert(5.0, "five")
        assert index.lookup(5.0) == "five"
        index.insert(1.0, "one")
        index.insert(9.0, "nine")
        result = index.range_query(0.0, 10.0)
        assert [k for k, _ in result] == [1.0, 5.0, 9.0]


class TestStatsContract:
    def test_lookup_accumulates_counters(self, any_factory, uniform_keys):
        index = any_factory().build(uniform_keys)
        index.stats.reset_counters()
        sk = np.sort(uniform_keys)
        for k in sk[::500]:
            index.lookup(float(k))
        total = (index.stats.comparisons + index.stats.nodes_visited
                 + index.stats.model_predictions + index.stats.keys_scanned)
        assert total > 0

    def test_size_bytes_reported(self, any_factory, uniform_keys):
        index = any_factory().build(uniform_keys)
        assert index.stats.size_bytes > 0

    def test_len(self, any_factory, uniform_keys):
        index = any_factory().build(uniform_keys)
        assert len(index) == uniform_keys.size
