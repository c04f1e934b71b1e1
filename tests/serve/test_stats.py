"""LatencyHistogram percentiles and ServerStats counter plumbing."""

import math

import pytest

from repro.core.interfaces import IndexStats
from repro.serve import LatencyHistogram, ServerStats
from repro.serve.stats import _BUCKETS, _bucket


def _bucket_by_doubling(micros):
    """The pre-frexp bucket search, kept as the reference."""
    bucket = 0
    bound = 1.0
    while micros > bound and bucket < _BUCKETS - 1:
        bound *= 2.0
        bucket += 1
    return bucket


class TestLatencyHistogram:
    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(50.0) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0.0
        assert snap["mean_us"] == 0.0

    def test_percentiles_are_bucket_upper_bounds(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(1e-6)       # 1us -> first bucket
        hist.record(1e-3)           # 1ms outlier
        assert hist.percentile(50.0) == pytest.approx(1e-6)
        assert hist.percentile(99.0) == pytest.approx(1e-6)
        assert hist.percentile(100.0) >= 1e-3 / 2
        assert hist.snapshot()["max_us"] == pytest.approx(1000.0)

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101.0)

    def test_merge_combines_observations(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        for _ in range(10):
            a.record(1e-6)
        for _ in range(10):
            b.record(1e-3)
        merged = a.merge(b)
        assert merged.total == 20
        assert merged.max_seconds == pytest.approx(1e-3)
        assert a.total == 10 and b.total == 10  # operands untouched

    def test_constant_time_bucket_matches_the_doubling_loop(self):
        probes = [0.0, -1.0, 1e-9, 0.25, 0.999, math.nan, math.inf, 1e300,
                  2.0 ** 40, 3.7, 4097.0]
        for i in range(_BUCKETS + 3):       # every 2^i us bound and past the last
            bound = 2.0 ** i
            probes += [math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf)]
        for micros in probes:
            assert _bucket(micros) == _bucket_by_doubling(micros), micros
        # And through record(): seconds -> micros uses the same expression.
        for seconds in (0.0, 5e-7, 1e-6, 2e-6, 4.0e-3, 4.096e-3, 1.0, 5000.0):
            hist = LatencyHistogram()
            hist.record(seconds)
            assert hist.counts[_bucket_by_doubling(seconds * 1e6)] == 1

    def test_record_n_equals_repeated_record(self):
        many, once = LatencyHistogram(), LatencyHistogram()
        for seconds, count in ((3e-6, 5), (4e-3, 200), (1e-6, 1)):
            once.record_n(seconds, count)
            for _ in range(count):
                many.record(seconds)
        assert once.counts == many.counts
        assert once.total == many.total == 206
        assert once.max_seconds == many.max_seconds
        assert once.sum_seconds == pytest.approx(many.sum_seconds)

    def test_overflow_bucket_catches_huge_latencies(self):
        hist = LatencyHistogram()
        hist.record(1e9)
        assert hist.total == 1
        assert hist.percentile(50.0) > 0


class TestServerStats:
    def test_submit_and_done_counters(self):
        stats = ServerStats(num_shards=2)
        stats.record_submit(0, depth=3)
        stats.record_submit(1, depth=1)
        stats.record_done(1e-5)
        stats.record_done_many([2e-5], writes=1)
        snap = stats.snapshot()
        assert snap["requests"] == 2
        assert snap["responses"] == 2
        assert snap["writes"] == 1
        assert snap["per_shard_requests"] == [1, 1]
        assert snap["queue_high_water"] == [3, 1]

    def test_batched_recorders_match_scalar_semantics(self):
        stats = ServerStats(num_shards=1)
        stats.record_submit_many(0, count=5, depth=5)
        stats.record_done_many([1e-6] * 4, writes=1)
        stats.record_batch(0, 4)
        snap = stats.snapshot()
        assert snap["requests"] == 5
        assert snap["responses"] == 4
        assert snap["writes"] == 1
        assert snap["avg_batch"] == 4.0
        assert snap["per_shard_batches"] == [1]
        assert snap["latency"]["count"] == 4.0

    def test_done_many_with_counts_records_runs_not_rows(self):
        stats = ServerStats(num_shards=1)
        stats.record_done_many([4e-3, 1e-6], counts=[300, 2])
        snap = stats.snapshot()
        assert snap["responses"] == 302
        assert snap["latency"]["count"] == 302.0
        assert stats.latency.counts[_bucket_by_doubling(4e3)] == 300
        assert stats.latency.counts[0] == 2

    def test_shed_counts_rows(self):
        stats = ServerStats(num_shards=1)
        stats.record_shed(7)
        assert (stats.shed, stats.requests) == (7, 7)

    def test_shed_and_cache_counters(self):
        stats = ServerStats(num_shards=1)
        stats.record_shed()
        stats.record_cache(hit=True)
        stats.record_cache(hit=False)
        snap = stats.snapshot()
        assert snap["shed"] == 1
        assert snap["requests"] == 1
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 1

    def test_snapshot_embeds_index_stats(self):
        stats = ServerStats(num_shards=1)
        folded = IndexStats(comparisons=7, size_bytes=128)
        snap = stats.snapshot(index_stats=folded)
        assert snap["index"]["comparisons"] == 7
        assert snap["index"]["size_bytes"] == 128

    def test_snapshot_without_index_stats_has_no_index_key(self):
        assert "index" not in ServerStats(num_shards=1).snapshot()
