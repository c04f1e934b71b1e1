"""ShardedStore: routing, partitioning, and parity with unsharded indexes."""

import numpy as np
import pytest

from repro.baselines import SortedArrayIndex
from repro.bench.runner import MULTI_DIM_FACTORIES, ONE_DIM_FACTORIES
from repro.core.interfaces import IndexStats
from repro.serve import Op, Request, ShardedStore


def _keys(n=2000, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1e6, n)


def _points(n=2000, d=2, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 100.0, (n, d))


class TestConstruction:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedStore(SortedArrayIndex, num_shards=0)

    def test_rejects_non_index_factory(self):
        with pytest.raises(TypeError):
            ShardedStore(dict, num_shards=2).build(_keys())

    def test_rejects_fewer_keys_than_shards(self):
        with pytest.raises(ValueError):
            ShardedStore(SortedArrayIndex, num_shards=8).build(np.array([1.0, 2.0]))

    def test_query_before_build_raises(self):
        store = ShardedStore(SortedArrayIndex, num_shards=2)
        with pytest.raises(RuntimeError):
            store.lookup(1.0)

    def test_shard_sizes_partition_everything(self):
        keys = _keys(1000)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        sizes = store.shard_sizes()
        assert len(sizes) == 4
        assert sum(sizes) == len(store) == 1000
        assert all(size > 0 for size in sizes)

    def test_single_shard_degenerates_to_one_index(self):
        keys = _keys(100)
        store = ShardedStore(SortedArrayIndex, num_shards=1).build(keys)
        assert store.shard_sizes() == [100]


class TestOneDimParity:
    @pytest.fixture(scope="class")
    def setup(self):
        keys = _keys(3000, seed=3)
        direct = SortedArrayIndex().build(keys)
        store = ShardedStore(SortedArrayIndex, num_shards=5).build(keys)
        return keys, direct, store

    def test_lookup_returns_global_ranks(self, setup):
        keys, direct, store = setup
        rng = np.random.default_rng(1)
        for key in rng.choice(keys, 100):
            assert store.lookup(key) == direct.lookup(key)

    def test_misses_are_none(self, setup):
        _, direct, store = setup
        assert store.lookup(-5.0) is None
        assert store.lookup(2e7) is None

    def test_contains(self, setup):
        keys, direct, store = setup
        assert store.contains(keys[7])
        assert not store.contains(-1.0)

    def test_range_spans_shard_boundaries(self, setup):
        keys, direct, store = setup
        rng = np.random.default_rng(2)
        for _ in range(20):
            lo, hi = np.sort(rng.choice(keys, 2))
            assert store.range_query_1d(lo, hi) == direct.range_query(lo, hi)

    def test_batch_ops_align_with_scalar(self, setup):
        keys, direct, store = setup
        rng = np.random.default_rng(3)
        probe = np.concatenate([rng.choice(keys, 50), rng.uniform(-10, 2e6, 50)])
        assert list(store.lookup_batch(probe)) == [store.lookup(k) for k in probe]
        assert list(store.contains_batch(probe)) == [store.contains(k) for k in probe]

    def test_duplicate_keys_keep_global_order(self):
        keys = np.array([5.0, 1.0, 5.0, 3.0, 5.0, 2.0, 4.0, 0.5])
        direct = SortedArrayIndex().build(keys)
        store = ShardedStore(SortedArrayIndex, num_shards=3).build(keys)
        assert store.range_query_1d(0.0, 6.0) == direct.range_query(0.0, 6.0)

    def test_explicit_values_partition_correctly(self):
        keys = _keys(200, seed=9)
        values = [f"v{i}" for i in range(len(keys))]
        direct = SortedArrayIndex().build(keys, values)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys, values)
        for key in keys[:50]:
            assert store.lookup(key) == direct.lookup(key)


class TestMultiDimParity:
    @pytest.fixture(scope="class", params=["zm-index", "grid", "kd-tree"])
    def setup(self, request):
        pts = _points(1500, seed=4)
        direct = MULTI_DIM_FACTORIES[request.param]().build(pts)
        store = ShardedStore(MULTI_DIM_FACTORIES[request.param], num_shards=4).build(pts)
        return pts, direct, store

    def test_point_queries(self, setup):
        pts, direct, store = setup
        rng = np.random.default_rng(5)
        for row in rng.integers(0, len(pts), 100):
            assert store.point_query(pts[row]) == direct.point_query(pts[row])
        assert store.point_query((-3.0, -3.0)) is None

    def test_range_queries_same_multiset(self, setup):
        pts, direct, store = setup
        rng = np.random.default_rng(6)
        for _ in range(15):
            lo = rng.uniform(0, 80, 2)
            hi = lo + rng.uniform(1, 30, 2)
            assert sorted(store.range_query(lo, hi)) == sorted(direct.range_query(lo, hi))

    def test_inverted_box_is_empty(self, setup):
        _, _, store = setup
        assert store.range_query((50.0, 50.0), (10.0, 10.0)) == []

    def test_knn_merges_to_global_top_k(self, setup):
        pts, direct, store = setup
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = rng.uniform(0, 100, 2)
            assert store.knn_query(q, 7) == direct.knn_query(q, 7)
        assert store.knn_query(pts[0], 0) == []

    def test_point_query_batch(self, setup):
        pts, _, store = setup
        probe = np.vstack([pts[:40], np.full((5, 2), -1.0)])
        assert list(store.point_query_batch(probe)) == [
            store.point_query(p) for p in probe
        ]


class TestRouting:
    def test_route_covers_every_op(self):
        keys = _keys(500)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        assert len(store.route(Request(op=Op.LOOKUP, key=1.0))) == 1
        assert len(store.route(Request(op=Op.CONTAINS, key=1.0))) == 1
        span = store.route(Request(op=Op.RANGE_1D, low=float(keys.min()),
                                   high=float(keys.max())))
        assert span == tuple(range(4))

    def test_knn_routes_to_all_shards(self):
        pts = _points(500)
        store = ShardedStore(MULTI_DIM_FACTORIES["zm-index"], num_shards=3).build(pts)
        assert store.route(Request(op=Op.KNN, point=(1.0, 1.0), k=3)) == (0, 1, 2)

    def test_range_pruning_skips_disjoint_shards(self):
        pts = _points(2000, seed=8)
        store = ShardedStore(MULTI_DIM_FACTORIES["zm-index"], num_shards=8).build(pts)
        tiny = store.route(Request(op=Op.RANGE_QUERY, low=(1.0, 1.0), high=(2.0, 2.0)))
        assert 0 < len(tiny) < 8

    def test_route_home_batch_matches_scalar_route(self):
        keys = _keys(800, seed=10)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        requests = [Request(op=Op.LOOKUP, key=float(k)) for k in keys[:100]]
        requests.append(Request(op=Op.RANGE_1D, low=0.0, high=1e6))
        homes = store.route_home_batch(requests)
        assert homes == [store.route(r)[0] for r in requests]

    def test_skewed_data_builds_empty_shards_safely(self):
        keys = np.full(100, 42.0)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        assert sum(store.shard_sizes()) == 100
        assert store.lookup(42.0) == SortedArrayIndex().build(keys).lookup(42.0)
        assert store.lookup(7.0) is None


class TestExecuteAndStats:
    def test_execute_rejects_unroutable_op(self):
        store = ShardedStore(SortedArrayIndex, num_shards=2).build(_keys(100))
        with pytest.raises(ValueError):
            store.execute_batch(0, Op.RANGE_1D, [Request(op=Op.RANGE_1D, low=0, high=1)])

    def test_execute_dispatches_by_op(self):
        keys = _keys(300, seed=11)
        store = ShardedStore(SortedArrayIndex, num_shards=2).build(keys)
        direct = SortedArrayIndex().build(keys)
        assert store.execute(Request(op=Op.LOOKUP, key=float(keys[0]))) == direct.lookup(keys[0])
        assert store.execute(Request(op=Op.CONTAINS, key=float(keys[0]))) is True

    def test_stats_fold_merges_all_shards(self):
        keys = _keys(400, seed=12)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        for key in keys[:20]:
            store.lookup(key)
        folded = store.stats()
        assert isinstance(folded, IndexStats)
        per_shard = [shard.stats for shard in store.shards]
        assert folded.comparisons == sum(s.comparisons for s in per_shard)
        assert folded.size_bytes == sum(s.size_bytes for s in per_shard)

    def test_writes_on_immutable_factory_raise_typed_error(self):
        from repro.onedim import PGMIndex

        store = ShardedStore(PGMIndex, num_shards=2).build(_keys(200))
        with pytest.raises(TypeError, match="immutable"):
            store.insert(1.0, "x")
        with pytest.raises(TypeError, match="immutable"):
            store.delete(1.0)

    def test_insert_and_delete_bump_generation(self):
        keys = _keys(300, seed=13)
        store = ShardedStore(SortedArrayIndex, num_shards=2).build(keys)
        before = list(store.generations)
        store.insert(123.456, "x")
        after_insert = list(store.generations)
        assert sum(after_insert) == sum(before) + 1
        assert store.lookup(123.456) == "x"
        assert store.delete(123.456) is True
        assert sum(store.generations) == sum(before) + 2
        assert store.lookup(123.456) is None

    def test_execute_writes_returns_results_and_exceptions_per_row(self):
        from repro.onedim import PGMIndex

        keys = _keys(300, seed=14)
        store = ShardedStore(SortedArrayIndex, num_shards=2).build(keys)
        shard = store.route_key(123.456)
        before = list(store.generations)
        results = store.execute_writes(shard, [
            Request(op=Op.INSERT, key=123.456, value="x"),
            Request(op=Op.DELETE, key=123.456),
            Request(op=Op.DELETE, key=123.456),
        ])
        assert results == [None, True, False]
        assert store.generations[shard] == before[shard] + 1
        frozen = ShardedStore(PGMIndex, num_shards=2).build(keys)
        (error,) = frozen.execute_writes(0, [Request(op=Op.INSERT, key=float(keys[0]))])
        assert isinstance(error, TypeError) and "immutable" in str(error)

    def test_execute_writes_reroutes_rows_a_rebalance_moved(self):
        keys = np.arange(0.0, 100.0)
        store = ShardedStore(SortedArrayIndex, num_shards=2).build(keys)
        assert store.route_key(10.5) == 0
        store.rebalance(bounds=[5.0])             # 10.5 now belongs to shard 1
        before = list(store.generations)
        assert store.execute_writes(0, [Request(op=Op.INSERT, key=10.5, value="m")]) == [None]
        assert store.generations == [before[0], before[1] + 1]
        assert store.shards[1].lookup(10.5) == "m"
