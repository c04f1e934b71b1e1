"""Per-index behavioural tests for the multi-dimensional learned indexes."""

import numpy as np
import pytest

from repro.baselines import RTreeIndex
from repro.curves.zorder import zencode_array
from repro.data import load_nd, range_queries_nd
from repro.multidim import (
    AIRTreeIndex,
    FloodIndex,
    LearnedKDIndex,
    LISAIndex,
    MLIndex,
    QdTreeIndex,
    SpatialLearnedBloomFilter,
    SPRIGIndex,
    TsunamiIndex,
    ZMIndex,
)


class TestZMIndex:
    def test_bigmin_skips_cut_scan_work(self, clustered_points):
        index = ZMIndex(bits=12).build(clustered_points)
        lo = clustered_points.min(axis=0)
        hi = lo + (clustered_points.max(axis=0) - lo) * 0.1
        index.stats.reset_counters()
        index.range_query(lo, hi)
        scanned_with_bigmin = index.stats.keys_scanned
        # A naive z-interval scan would touch every point between the
        # corner codes; BIGMIN must beat that by a large margin when the
        # box is a small corner of the space.
        assert scanned_with_bigmin < clustered_points.shape[0] * 0.5

    def test_code_ordering_is_kept_sorted(self, uniform_points):
        index = ZMIndex().build(uniform_points)
        codes = index._codes
        assert np.all(codes[:-1] <= codes[1:])

    def test_values_follow_code_order_as_single_objects(self, uniform_points):
        payloads = [(i, str(i)) if i % 3 else [i] for i in range(len(uniform_points))]
        index = ZMIndex().build(uniform_points, payloads)
        order = np.argsort(
            zencode_array(uniform_points, index._lo, index._hi, index.bits).astype(np.int64),
            kind="mergesort")
        assert isinstance(index._values, list)
        assert all(a is payloads[i] for a, i in zip(index._values, order))
        assert all(a is b for a, b in zip(index._values_arr, index._values))

    def test_rejects_code_overflow(self):
        with pytest.raises(ValueError):
            ZMIndex(bits=31).build(np.random.default_rng(0).uniform(0, 1, (10, 3)))

    def test_learned_segments_bounded(self, uniform_points):
        index = ZMIndex(epsilon=16).build(uniform_points)
        assert index.stats.extra["segments"] >= 1

    def test_three_dimensional(self):
        pts = load_nd("uniform", 1000, seed=3, dims=3)
        index = ZMIndex(bits=10).build(pts)
        assert index.point_query(pts[13]) == 13
        lo = pts.min(axis=0)
        hi = lo + (pts.max(axis=0) - lo) * 0.4
        got = sorted(v for _, v in index.range_query(lo, hi))
        mask = np.all((pts >= lo) & (pts <= hi), axis=1)
        assert got == [int(i) for i in np.nonzero(mask)[0]]

    def test_rebuild_to_empty_drops_the_old_build(self):
        pts = np.random.default_rng(8).uniform(0.0, 100.0, (100, 2))
        index = ZMIndex().build(pts)
        assert len(index) == 100 and index.stats.size_bytes > 0
        index.build(np.empty((0, 2)))
        assert len(index) == 0
        assert index.stats.size_bytes == 0
        assert index.point_query(pts[3]) is None
        assert list(index.point_query_batch(pts[:4])) == [None] * 4
        assert index.range_query((0.0, 0.0), (100.0, 100.0)) == []
        assert index.knn_query(pts[3], 5) == []


class TestMLIndex:
    def test_pivot_count_respected(self, clustered_points):
        index = MLIndex(num_pivots=4).build(clustered_points)
        assert index._pivots.shape[0] == 4

    def test_stripes_are_disjoint(self, clustered_points):
        index = MLIndex(num_pivots=8).build(clustered_points)
        # Keys of partition i live in [i*stripe, (i+1)*stripe).
        partition = (index._keys // index._stripe).astype(int)
        assert partition.min() >= 0
        assert partition.max() < 8

    def test_range_has_no_duplicates(self, clustered_points):
        index = MLIndex(num_pivots=6).build(clustered_points)
        lo = clustered_points.min(axis=0)
        hi = clustered_points.max(axis=0)
        result = index.range_query(lo, hi)
        values = [v for _, v in result]
        assert len(values) == len(set(values)) == clustered_points.shape[0]

    def test_more_pivots_tighter_scans(self):
        pts = load_nd("clusters", 4000, seed=9)
        boxes = range_queries_nd(pts, 10, 0.001, seed=10)
        few = MLIndex(num_pivots=2).build(pts)
        many = MLIndex(num_pivots=24).build(pts)
        for idx in (few, many):
            idx.stats.reset_counters()
            for lo, hi in boxes:
                idx.range_query(lo, hi)
        assert many.stats.keys_scanned < few.stats.keys_scanned


class TestFlood:
    def test_equi_depth_flattening_balances_cells(self):
        pts = load_nd("skew", 5000, seed=4)
        flood = FloodIndex(columns_per_dim=8).build(pts)
        sizes = [len(vals) for _, (_, _, vals) in flood._cells.items()]
        # Quantile columns keep the largest cell within a small factor of
        # the mean (a uniform grid on skewed data would blow this up).
        assert max(sizes) < 12 * (sum(sizes) / len(sizes))

    def test_tune_reduces_cost(self):
        pts = load_nd("clusters", 5000, seed=5)
        boxes = range_queries_nd(pts, 30, 0.002, seed=6)
        flood = FloodIndex(columns_per_dim=4).build(pts)
        cost_before = flood._workload_cost(boxes)
        flood.tune(boxes, candidates=(4, 8, 16, 32, 64))
        cost_after = flood._workload_cost(boxes)
        assert cost_after <= cost_before

    def test_tuning_preserves_correctness(self):
        pts = load_nd("clusters", 3000, seed=7)
        boxes = range_queries_nd(pts, 10, 0.01, seed=8)
        flood = FloodIndex().build(pts)
        flood.tune(boxes)
        for lo, hi in boxes[:5]:
            got = sorted(v for _, v in flood.range_query(lo, hi))
            mask = np.all((pts >= lo) & (pts <= hi), axis=1)
            assert got == [int(i) for i in np.nonzero(mask)[0]]

    def test_sort_dim_configurable(self, uniform_points):
        flood = FloodIndex(sort_dim=0).build(uniform_points)
        assert flood.point_query(uniform_points[3]) == 3


class TestTsunami:
    def test_partitions_into_regions(self, clustered_points):
        index = TsunamiIndex(region_depth=3).build(clustered_points)
        assert index.num_regions > 1

    def test_regions_partition_the_data(self, clustered_points):
        index = TsunamiIndex(region_depth=2).build(clustered_points)
        total = sum(len(r.grid) for r in index._regions)
        assert total == clustered_points.shape[0]

    def test_beats_flood_on_correlated_data(self):
        from repro.data.spatial import correlated_points

        pts = correlated_points(6000, seed=11, rho=0.99)
        boxes = range_queries_nd(pts, 30, 0.001, seed=12)
        flood = FloodIndex(columns_per_dim=16).build(pts)
        tsunami = TsunamiIndex(region_depth=3, columns_per_dim=8).build(pts)
        for idx in (flood, tsunami):
            idx.stats.reset_counters()
            for lo, hi in boxes:
                idx.range_query(lo, hi)
        # The headline Tsunami result: less wasted scanning under
        # correlation.
        assert tsunami.stats.keys_scanned < flood.stats.keys_scanned


class TestQdTree:
    def test_block_size_respected(self, clustered_points):
        index = QdTreeIndex(min_block=64).build(clustered_points)
        stack = [index._root]
        while stack:
            node = stack.pop()
            if node.points is not None:
                assert node.points.shape[0] <= 2 * 64 or node.dim == -1
            else:
                stack.extend([node.left, node.right])

    def test_workload_cuts_touch_fewer_blocks(self):
        pts = load_nd("uniform", 6000, seed=13)
        # Queries concentrated on dimension 0 slices.
        boxes = []
        rng = np.random.default_rng(14)
        for _ in range(40):
            x = rng.uniform(pts[:, 0].min(), pts[:, 0].max())
            boxes.append((np.array([x, pts[:, 1].min()]),
                          np.array([x + 10.0, pts[:, 1].max()])))
        oblivious = QdTreeIndex(min_block=128).build(pts)
        aware = QdTreeIndex(min_block=128, workload=boxes).build(pts)
        touched_oblivious = 0
        touched_aware = 0
        for lo, hi in boxes:
            oblivious.range_query(lo, hi)
            touched_oblivious += oblivious.stats.extra["last_blocks_touched"]
            aware.range_query(lo, hi)
            touched_aware += aware.stats.extra["last_blocks_touched"]
        assert touched_aware <= touched_oblivious

    def test_block_count_reported(self, uniform_points):
        index = QdTreeIndex(min_block=100).build(uniform_points)
        assert index.num_blocks == index.stats.extra["blocks"] > 1


class TestLearnedKD:
    def test_picks_selective_dimension(self):
        rng = np.random.default_rng(15)
        # dim 0 wildly spread, dim 1 nearly constant: a thin slice in
        # dim 0 should be answered through dim 0's index.
        pts = np.column_stack([rng.uniform(0, 1e6, 3000), rng.uniform(0, 1.0, 3000)])
        index = LearnedKDIndex().build(pts)
        index.stats.reset_counters()
        index.range_query([100.0, 0.0], [200.0, 1.0])
        mask = (pts[:, 0] >= 100) & (pts[:, 0] <= 200)
        assert index.stats.keys_scanned <= int(mask.sum()) + 4

    def test_per_dim_segments_reported(self, uniform_points):
        index = LearnedKDIndex().build(uniform_points)
        assert len(index.stats.extra["segments_per_dim"]) == 2


class TestLISA:
    def test_shard_sizes_bounded_after_churn(self):
        pts = load_nd("clusters", 3000, seed=16)
        index = LISAIndex(shard_size=64).build(pts)
        rng = np.random.default_rng(17)
        for i, p in enumerate(rng.uniform(0, 1000, (2000, 2))):
            index.insert(p, i)
        assert all(len(s) <= 2 * 64 + 1 for s in index._shards)
        assert index.stats.extra.get("splits", 0) > 0

    def test_mapping_is_monotone_in_cells(self, uniform_points):
        index = LISAIndex(cells_per_dim=8).build(uniform_points)
        # Mapped values must respect cell rank order.
        m = [index._mapped(p) for p in uniform_points[:200]]
        ranks = [int(v) for v in m]
        for p, r in zip(uniform_points[:200], ranks):
            assert r == index._cell_rank(index._cell_coords(p))

    def test_shard_count_grows_with_data(self):
        small = LISAIndex(shard_size=128).build(load_nd("uniform", 500, seed=18))
        big = LISAIndex(shard_size=128).build(load_nd("uniform", 5000, seed=18))
        assert big.num_shards > small.num_shards


class TestSPRIG:
    def test_interpolation_search_corrections_bounded_on_uniform(self, uniform_points):
        index = SPRIGIndex(cells_per_dim=16).build(uniform_points)
        index.stats.reset_counters()
        for p in uniform_points[::37]:
            index.point_query(p)
        lookups = len(uniform_points[::37])
        # Uniform data: interpolation lands within a couple of cells.
        assert index.stats.corrections / lookups < 4

    def test_cells_reported(self, uniform_points):
        index = SPRIGIndex(cells_per_dim=8).build(uniform_points)
        assert 1 <= index.stats.extra["cells"] <= 64


class TestAIRTree:
    def test_router_reduces_node_visits(self, clustered_points):
        plain = RTreeIndex(max_entries=16).build(clustered_points)
        learned = AIRTreeIndex(max_entries=16).build(clustered_points)
        rng = np.random.default_rng(19)
        train = clustered_points[rng.integers(0, clustered_points.shape[0], 1500)]
        learned.train(train)
        queries = clustered_points[rng.integers(0, clustered_points.shape[0], 300)]
        plain.stats.reset_counters()
        learned.stats.reset_counters()
        for q in queries:
            assert plain.point_query(q) is not None
            assert learned.point_query(q) is not None
        assert learned.stats.nodes_visited < plain.stats.nodes_visited

    def test_untrained_router_falls_back(self, clustered_points):
        index = AIRTreeIndex().build(clustered_points)
        assert index.point_query(clustered_points[0]) == 0
        assert index.stats.extra.get("fallbacks", 0) > 0

    def test_correct_after_inserts_despite_stale_router(self, clustered_points):
        index = AIRTreeIndex().build(clustered_points)
        index.train(clustered_points[:500])
        index.insert([999.0, 999.0], "fresh")
        assert index.point_query([999.0, 999.0]) == "fresh"
        assert index.delete([999.0, 999.0])
        assert index.point_query([999.0, 999.0]) is None


class TestSpatialLBF:
    def test_no_false_negatives(self, clustered_points):
        flt = SpatialLearnedBloomFilter(bits_budget=clustered_points.shape[0] * 12)
        flt.build(clustered_points)
        assert all(flt.might_contain(p) for p in clustered_points)

    def test_far_negatives_rejected(self, clustered_points):
        flt = SpatialLearnedBloomFilter(bits_budget=clustered_points.shape[0] * 12)
        flt.build(clustered_points)
        rng = np.random.default_rng(20)
        far = rng.uniform(1e6, 2e6, (500, 2))
        assert flt.false_positive_rate(far) == 0.0

    def test_inside_fpr_reasonable(self, clustered_points):
        flt = SpatialLearnedBloomFilter(bits_budget=clustered_points.shape[0] * 12)
        flt.build(clustered_points)
        rng = np.random.default_rng(21)
        lo = clustered_points.min(axis=0)
        hi = clustered_points.max(axis=0)
        probes = rng.uniform(lo, hi, (2000, 2))
        members = {tuple(p) for p in clustered_points}
        negs = np.array([p for p in probes if tuple(p) not in members])
        assert flt.false_positive_rate(negs) < 0.5

    def test_adaptive_insert(self, clustered_points):
        flt = SpatialLearnedBloomFilter(bits_budget=clustered_points.shape[0] * 10)
        flt.build(clustered_points)
        fresh_inside = clustered_points.mean(axis=0) + 0.123
        flt.insert(fresh_inside)
        assert flt.might_contain(fresh_inside)
        fresh_outside = clustered_points.max(axis=0) + 500
        flt.insert(fresh_outside)
        assert flt.might_contain(fresh_outside)

    def test_empty_regions_answer_fast_no(self, clustered_points):
        flt = SpatialLearnedBloomFilter(bits_budget=65536, prefix_bits=6)
        flt.build(clustered_points)
        # Clustered data leaves most prefixes empty.
        assert flt.stats.extra["regions"] < (1 << 6)
