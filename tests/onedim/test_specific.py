"""Per-index behavioural tests: the properties each paper claims."""

import numpy as np
import pytest

from repro.data import load_1d
from repro.onedim import (
    ALEXIndex,
    BourbonLSM,
    DynamicPGMIndex,
    FITingTreeIndex,
    HistTreeIndex,
    HybridRMIIndex,
    InterpolationBTreeIndex,
    LearnedSkipList,
    LIPPIndex,
    PGMIndex,
    RadixSplineIndex,
    RMIIndex,
    XIndexStyleIndex,
)


class TestRMI:
    def test_more_leaves_lower_error(self, lognormal_keys):
        small = RMIIndex(num_models=8).build(lognormal_keys)
        big = RMIIndex(num_models=256).build(lognormal_keys)
        assert max(big.leaf_errors) <= max(small.leaf_errors)

    def test_root_variants_are_correct(self, lognormal_keys):
        sk = np.sort(lognormal_keys)
        for root in ("linear", "quadratic", "nn"):
            index = RMIIndex(num_models=32, root=root).build(lognormal_keys)
            for i in range(0, sk.size, 541):
                assert index.lookup(float(sk[i])) == i, root

    def test_rejects_unknown_root(self):
        with pytest.raises(ValueError):
            RMIIndex(root="transformer")

    def test_size_independent_of_data_size(self):
        # The learned index's core claim: model size does not scale with n.
        small = RMIIndex(num_models=64).build(load_1d("uniform", 2000, seed=1))
        big = RMIIndex(num_models=64).build(load_1d("uniform", 20000, seed=1))
        assert big.stats.size_bytes == small.stats.size_bytes

    def test_mean_error_reported(self, uniform_keys):
        index = RMIIndex(num_models=32).build(uniform_keys)
        assert index.stats.extra["mean_leaf_error"] >= 0


class TestRadixSpline:
    def test_knot_count_shrinks_with_error_budget(self, lognormal_keys):
        tight = RadixSplineIndex(max_error=4).build(lognormal_keys)
        loose = RadixSplineIndex(max_error=128).build(lognormal_keys)
        assert tight.num_knots >= loose.num_knots

    def test_true_error_within_budget_for_distinct_keys(self, uniform_keys):
        index = RadixSplineIndex(max_error=16).build(uniform_keys)
        assert index.stats.extra["true_error"] <= 16

    def test_radix_bits_bounds(self):
        with pytest.raises(ValueError):
            RadixSplineIndex(radix_bits=0)
        with pytest.raises(ValueError):
            RadixSplineIndex(max_error=0)


class TestPGM:
    def test_epsilon_guarantee_bounds_corrections(self, lognormal_keys):
        index = PGMIndex(epsilon=16).build(lognormal_keys)
        index.stats.reset_counters()
        sk = np.sort(lognormal_keys)
        lookups = 100
        for k in sk[::len(sk) // lookups][:lookups]:
            index.lookup(float(k))
        # Each level's window is 2*(eps+1)+1; corrections per lookup must
        # be bounded by levels * window.
        per_lookup = index.stats.corrections / lookups
        assert per_lookup <= index.num_levels * (2 * 17 + 1)

    def test_smaller_epsilon_more_segments(self, lognormal_keys):
        fine = PGMIndex(epsilon=8).build(lognormal_keys)
        coarse = PGMIndex(epsilon=128).build(lognormal_keys)
        assert fine.num_segments > coarse.num_segments

    def test_recursion_terminates_with_one_root_segment(self, lognormal_keys):
        index = PGMIndex(epsilon=16).build(lognormal_keys)
        assert len(index._columns[-1]) == 1

    @pytest.mark.parametrize("epsilon", [1, 4, 16])
    def test_duplicate_runs_longer_than_epsilon_are_found_from_their_start(self, epsilon):
        # The run spans many segments at every level; each level must pick
        # the segment holding the run's start, not one anchored inside it.
        keys = np.concatenate([np.arange(100.0), np.full(300, 150.0), np.arange(200.0, 400.0)])
        index = PGMIndex(epsilon=epsilon, epsilon_recursive=1).build(keys)
        assert index.num_levels > 2
        assert len(index.range_query(150.0, 150.0)) == 300
        assert len(index.range_query(99.0, 200.0)) == 302
        queries = np.array([150.0, 99.0, 200.0, 150.5])
        assert [index._locate(q) for q in queries.tolist()] == [100, 99, 400, 400]
        assert index._locate_batch(queries).tolist() == [100, 99, 400, 400]

    def test_dynamic_variant_merges_levels(self):
        keys = load_1d("uniform", 2000, seed=4)
        index = DynamicPGMIndex(buffer_capacity=64).build(keys)
        before = index.stats.extra.get("static_levels", 0)
        for i in range(500):
            index.insert(2e12 + i, i)
        assert len(index) == 2500
        assert index.stats.extra["static_levels"] >= 1

    def test_dynamic_delete_of_buffered_and_static_keys(self):
        index = DynamicPGMIndex(buffer_capacity=32).build([1.0, 2.0, 3.0])
        index.insert(10.0, "buf")
        assert index.delete(10.0)   # still in buffer
        assert index.delete(2.0)    # in the static level
        assert index.lookup(10.0) is None
        assert index.lookup(2.0) is None
        assert len(index) == 2

    def test_dynamic_delete_survives_a_merge_over_an_older_copy(self, both_batch_sides):
        """A tombstone must outlive a merge while an older level still
        holds its key, or the deleted key's old value comes back."""
        index = DynamicPGMIndex(buffer_capacity=4).build(np.arange(64.0))
        index.insert(5.0, "new")
        for k in (100.0, 101.0, 102.0):
            index.insert(k)                       # buffer full: merge
        assert index.delete(5.0)
        assert index.lookup(5.0) is None
        for k in (200.0, 201.0, 202.0, 203.0):
            index.insert(k)                       # merges level 0 again
        assert index.lookup(5.0) is None
        assert index.lookup_batch([5.0])[0] is None
        assert 5.0 not in dict(index.range_query(4.0, 6.0))
        assert len(index) == 70

    def test_dynamic_newest_level_answers_even_with_none(self, both_batch_sides):
        """The newest copy of a key decides, including a None value."""
        index = DynamicPGMIndex(buffer_capacity=4).build(np.arange(64.0))
        index.insert(3.0, None)
        assert index.lookup(3.0) is None
        for k in (100.0, 101.0, 102.0):
            index.insert(k, k)                    # merge the None down a level
        assert index.lookup(3.0) is None
        assert index.lookup_batch([3.0, 2.0]).tolist() == [None, 2]
        assert index.range_query(3.0, 3.0) == [(3.0, None)]


class TestALEX:
    def test_gapped_arrays_have_gaps(self, uniform_keys):
        index = ALEXIndex().build(uniform_keys)
        # Density target 0.7 => capacity exceeds count in every leaf.
        node = index._head
        while node is not None:
            assert node.count <= node.capacity
            node = node.next

    def test_leaf_chain_covers_all_keys_in_order(self, uniform_keys):
        index = ALEXIndex().build(uniform_keys)
        seen = []
        node = index._head
        while node is not None:
            for s in range(node.capacity):
                if node.occupied[s]:
                    seen.append(float(node.keys[s]))
            node = node.next
        assert seen == sorted(seen)
        assert len(seen) == uniform_keys.size

    def test_node_conversion_under_heavy_inserts(self):
        keys = load_1d("uniform", 500, seed=7)
        index = ALEXIndex(max_leaf_keys=64).build(keys)
        nodes_before = index.stats.extra["nodes"]
        for i in range(2000):
            index.insert(1e10 + i * 3.7, i)
        assert len(index) == 2500
        # Heavy append growth must have split leaves into subtrees.
        index._refresh_size()
        assert index.stats.extra["nodes"] > nodes_before

    def test_duplicate_build_keys_overwrite_like_lookup(self):
        index = ALEXIndex().build([1.0, 2.0, 2.0, 3.0])
        assert index.lookup(2.0) is not None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ALEXIndex(max_leaf_keys=4)
        with pytest.raises(ValueError):
            ALEXIndex(density=0.99)


class TestLIPP:
    def test_no_last_mile_search(self, uniform_keys):
        # LIPP's claim: lookups never run a correction search.
        index = LIPPIndex().build(uniform_keys)
        index.stats.reset_counters()
        sk = np.sort(uniform_keys)
        for k in sk[::101]:
            index.lookup(float(k))
        assert index.stats.corrections == 0

    def test_exactly_one_comparison_per_positive_lookup(self, uniform_keys):
        index = LIPPIndex().build(uniform_keys)
        index.stats.reset_counters()
        sk = np.sort(uniform_keys)
        n = 0
        for k in sk[::101]:
            index.lookup(float(k))
            n += 1
        # One key comparison per DATA slot touched; depth > 1 only adds
        # model predictions, not comparisons.
        assert index.stats.comparisons == n

    def test_items_in_sorted_order(self, lognormal_keys):
        index = LIPPIndex().build(lognormal_keys)
        keys = [k for k, _ in index.items()]
        assert keys == sorted(keys)
        assert len(keys) == lognormal_keys.size

    def test_deep_insert_chain_triggers_rebuild(self):
        index = LIPPIndex(gap_factor=1.5).build(np.linspace(0, 1, 64))
        rng = np.random.default_rng(0)
        # Hammer a tiny interval to force collisions.
        for i, k in enumerate(rng.uniform(0.5, 0.5000001, 3000)):
            index.insert(float(k), i)
        assert len(index) <= 64 + 3000
        # All inserted keys still reachable.
        count = sum(1 for _ in index.items())
        assert count == len(index)

    def test_count_tracks_subtree_sizes(self, uniform_keys):
        index = LIPPIndex().build(uniform_keys)
        assert index._root.count == uniform_keys.size


class TestFITingTree:
    def test_buffer_merge_resegments(self):
        keys = load_1d("uniform", 2000, seed=8)
        index = FITingTreeIndex(epsilon=32, buffer_size=16).build(keys)
        before = index.num_segments
        for i in range(1000):
            index.insert(1e10 + i * 2.0, i)
        assert index.stats.extra.get("merges", 0) > 0
        assert index.num_segments >= before

    def test_segment_error_bound_preserved_after_merges(self):
        keys = load_1d("lognormal", 1500, seed=9)
        index = FITingTreeIndex(epsilon=16, buffer_size=8).build(keys)
        rng = np.random.default_rng(1)
        for k in rng.uniform(keys.min(), keys.max(), 500):
            index.insert(float(k), "x")
        # Every segment must still satisfy the epsilon bound.
        for seg in index._segments:
            if seg.keys.size == 0:
                continue
            preds = seg.slope * (seg.keys - seg.first_key) + seg.anchor_pos
            errors = np.abs(preds - np.arange(seg.keys.size))
            assert float(errors.max()) <= 16 + 1.0

    def test_epsilon_controls_segment_count(self, lognormal_keys):
        fine = FITingTreeIndex(epsilon=8).build(lognormal_keys)
        coarse = FITingTreeIndex(epsilon=256).build(lognormal_keys)
        assert fine.num_segments > coarse.num_segments

    def test_delete_of_last_array_key_keeps_buffer(self):
        # Regression: deleting the only main-array key of a segment used
        # to drop the whole segment, silently losing its insert buffer.
        index = FITingTreeIndex().build([1.0], ["a"])
        index.insert(0.0, "b")
        assert index.delete(1.0) is True
        assert index.lookup(0.0) == "b"
        assert index.range_query(-1.0, 2.0) == [(0.0, "b")]
        assert len(index) == 1
        assert index.delete(0.0) is True
        assert len(index) == 0
        assert index.range_query(-1.0, 2.0) == []

    @pytest.mark.parametrize("key", [np.inf, -np.inf, np.nan])
    def test_non_finite_insert_is_refused_before_it_lands(self, key):
        # A buffered infinite key used to break every later merge of its
        # segment: PLA segments model finite keys only.
        index = FITingTreeIndex(epsilon=16, buffer_size=4).build(np.arange(100.0))
        with pytest.raises(ValueError, match="finite"):
            index.insert(key, "bad")
        for i in range(40):
            index.insert(200.0 + i, i)
        assert len(index) == 140 and index.lookup(239.0) == 39


class TestXIndex:
    def test_group_compaction_and_split(self):
        keys = load_1d("uniform", 2000, seed=10)
        index = XIndexStyleIndex(group_size=128, buffer_limit=16).build(keys)
        groups_before = index.num_groups
        for i in range(2000):
            index.insert(5e9 + i * 1.5, i)
        assert index.stats.extra.get("compactions", 0) > 0
        assert index.num_groups > groups_before

    def test_lookup_checks_buffer(self):
        index = XIndexStyleIndex(buffer_limit=1000).build([1.0, 2.0, 3.0])
        index.insert(2.5, "buffered")
        assert index.lookup(2.5) == "buffered"


class TestHistTree:
    def test_no_trained_models(self, uniform_keys):
        index = HistTreeIndex().build(uniform_keys)
        index.stats.reset_counters()
        index.lookup(float(np.sort(uniform_keys)[0]))
        assert index.stats.model_predictions == 0

    def test_deeper_on_skewed_data(self):
        uniform = HistTreeIndex(bins=16, leaf_threshold=16).build(load_1d("uniform", 4000, seed=2))
        skewed = HistTreeIndex(bins=16, leaf_threshold=16).build(load_1d("zipf", 4000, seed=2))
        assert skewed.stats.extra["nodes"] >= uniform.stats.extra["nodes"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HistTreeIndex(bins=1)
        with pytest.raises(ValueError):
            HistTreeIndex(leaf_threshold=0)


class TestHybridRMI:
    def test_hard_regions_get_btrees(self):
        # Clustered osm-style keys defeat per-leaf linear models.
        keys = load_1d("osm", 5000, seed=3)
        index = HybridRMIIndex(num_models=32, error_threshold=64).build(keys)
        assert index.btree_leaf_count > 0

    def test_easy_data_needs_no_btrees(self):
        keys = np.linspace(0, 1e6, 5000)
        index = HybridRMIIndex(num_models=32, error_threshold=64).build(keys)
        assert index.btree_leaf_count == 0

    def test_lower_threshold_more_btrees(self):
        keys = load_1d("lognormal", 5000, seed=4)
        strict = HybridRMIIndex(num_models=32, error_threshold=8).build(keys)
        lax = HybridRMIIndex(num_models=32, error_threshold=512).build(keys)
        assert strict.btree_leaf_count >= lax.btree_leaf_count


class TestBourbon:
    def test_models_attached_to_runs(self):
        keys = load_1d("uniform", 3000, seed=5)
        index = BourbonLSM(memtable_limit=256).build(keys)
        assert index.model_size_bytes() > 0

    def test_models_rebuilt_after_flush_and_compaction(self):
        index = BourbonLSM(memtable_limit=64, max_runs=2).build(load_1d("uniform", 500, seed=6))
        built_before = index.stats.extra["models_built"]
        for i in range(400):
            index.insert(1e10 + i, i)
        assert index.stats.extra["models_built"] > built_before

    def test_learned_search_beats_binary_comparisons(self):
        from repro.baselines import LSMTreeIndex

        keys = load_1d("uniform", 20000, seed=7)
        sk = np.sort(keys)
        learned = BourbonLSM(epsilon=8).build(keys)
        plain = LSMTreeIndex().build(keys)
        for idx in (learned, plain):
            idx.stats.reset_counters()
            for k in sk[::101]:
                idx.lookup(float(k))
        assert learned.stats.comparisons < plain.stats.comparisons


class TestLearnedSkipList:
    def test_guide_rebuilds_after_updates(self):
        index = LearnedSkipList(rebuild_every=10).build(np.arange(100.0))
        before = index.stats.extra["guide_rebuilds"]
        for i in range(25):
            index.insert(1000.0 + i, i)
        index.lookup(1000.0)
        index.lookup(1010.0)
        assert index.stats.extra["guide_rebuilds"] > before

    def test_delete_rebuilds_guide_eagerly(self):
        index = LearnedSkipList().build(np.arange(50.0))
        index.delete(25.0)
        # No stale guide pointer may serve this key.
        assert index.lookup(25.0) is None
        assert index.lookup(26.0) == 26


class TestInterpolationBTree:
    def test_interpolation_beats_binary_on_uniform(self, uniform_keys):
        from repro.baselines import BPlusTreeIndex

        sk = np.sort(uniform_keys)
        interp = InterpolationBTreeIndex(fanout=64).build(uniform_keys)
        plain = BPlusTreeIndex(fanout=64).build(uniform_keys)
        for idx in (interp, plain):
            idx.stats.reset_counters()
            for k in sk[::101]:
                idx.lookup(float(k))
        # Interpolation replaces per-node binary comparisons with a short
        # repair scan on uniform data.
        assert interp.stats.comparisons < plain.stats.comparisons
