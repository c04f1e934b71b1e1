"""Deterministic multi-thread stress: exact totals under the sanitizer.

Eight threads start on a shared barrier and hammer one ResultCache /
ServerStats instance with seeded, per-thread-disjoint schedules.  The
schedules are chosen so every counter's final value is independent of
interleaving (disjoint key spaces; dyadic-rational latencies whose sum
is exact in any order), so the assertions are exact equalities — any
lost update under contention is a hard failure, not a flake.  The whole
suite runs with ``REPRO_SANITIZE=1`` set *before* construction, so all
locks are rank-tracked :class:`~repro.core.lockorder.TrackedLock`s and
the runtime lock-order witness is armed throughout.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import sanitize
from repro.core.lockorder import TrackedLock
from repro.serve.cache import ResultCache
from repro.serve.stats import ServerStats

THREADS = 8
OPS = 400  # per-thread operations per schedule
SHARDS = 4


@pytest.fixture(autouse=True)
def sanitized(monkeypatch):
    """Arm the lock-order witness before any lock is constructed."""
    monkeypatch.setenv(sanitize.ENV_VAR, "1")


def run_threads(worker):
    """Run ``worker(tid)`` on THREADS threads released by one barrier."""
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def body(tid: int) -> None:
        try:
            barrier.wait(timeout=30.0)
            worker(tid)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(tid,)) for tid in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "stress worker hung"
    assert not errors, errors


class TestServerStatsStress:
    def test_exact_totals_across_eight_threads(self):
        stats = ServerStats(SHARDS)
        assert isinstance(stats._lock, TrackedLock)  # sanitizer is live

        def worker(tid: int) -> None:
            for i in range(OPS):
                shard = (tid + i) % SHARDS
                stats.record_submit(shard, depth=(tid * OPS + i) % 17)
                # Dyadic-rational latencies: exact float sum in any order.
                stats.record_done_many([(i % 16) * 2.0**-10], writes=int(i % 5 == 0))
                if i % 4 == 0:
                    stats.record_shed()
                stats.record_cache(hit=(i % 2 == 0))

        run_threads(worker)
        snap = stats.snapshot()
        sheds = THREADS * (OPS // 4)
        assert snap["requests"] == THREADS * OPS + sheds
        assert snap["responses"] == THREADS * OPS
        assert snap["shed"] == sheds
        assert snap["writes"] == THREADS * (OPS // 5)
        assert snap["cache_hits"] == THREADS * (OPS // 2)
        assert snap["cache_misses"] == THREADS * (OPS // 2)
        # Per-thread schedules cover the shards uniformly.
        assert snap["per_shard_requests"] == [THREADS * OPS // SHARDS] * SHARDS
        # Depth values form a fixed set, so the high-water mark is exact.
        assert snap["queue_high_water"] == [16] * SHARDS
        hist = snap["latency"]
        assert hist["count"] == float(THREADS * OPS)
        expected_mean_us = (sum((i % 16) * 2.0**-10 for i in range(OPS)) / OPS) * 1e6
        assert hist["mean_us"] == pytest.approx(expected_mean_us, rel=0, abs=0)
        assert hist["max_us"] == 15 * 2.0**-10 * 1e6

    def test_record_hit_counts_one_hit_and_one_response(self):
        stats = ServerStats(SHARDS)

        def worker(tid: int) -> None:
            for i in range(OPS):
                if i % 3 == 0:
                    stats.record_cache(hit=False)
                    stats.record_done((i % 16) * 2.0**-10)
                else:
                    stats.record_hit()

        run_threads(worker)
        snap = stats.snapshot()
        misses = THREADS * len(range(0, OPS, 3))
        assert snap["cache_hits"] == THREADS * OPS - misses
        assert snap["cache_misses"] == misses
        assert snap["responses"] == THREADS * OPS
        assert snap["latency"]["count"] == float(THREADS * OPS)
        assert stats.latency.counts[0] >= THREADS * OPS - misses

    def test_batched_recording_matches_scalar_totals(self):
        stats = ServerStats(SHARDS)

        def worker(tid: int) -> None:
            for i in range(OPS // 8):
                shard = (tid + i) % SHARDS
                stats.record_submit_many(shard, count=8, depth=i % 11)
                stats.record_done_many([(j % 16) * 2.0**-10 for j in range(8)],
                                       writes=2)
                stats.record_batch(shard, size=8)

        run_threads(worker)
        snap = stats.snapshot()
        assert snap["requests"] == THREADS * OPS
        assert snap["responses"] == THREADS * OPS
        assert snap["writes"] == THREADS * (OPS // 8) * 2
        assert snap["batches"] == THREADS * (OPS // 8)
        assert snap["batched_requests"] == THREADS * OPS
        assert snap["avg_batch"] == 8.0
        assert snap["latency"]["count"] == float(THREADS * OPS)


class TestCachedServerStress:
    def test_hits_and_misses_add_up_to_the_cached_reads(self):
        """Eight clients ``submit`` cached reads at one server (tickets
        completed by four shard workers): every read is exactly one hit
        or one miss, one response, and the right answer."""
        import numpy as np

        from repro.baselines import SortedArrayIndex
        from repro.serve import IndexServer, Op, Request

        keys = np.arange(0.0, 400.0)
        server = IndexServer(SortedArrayIndex, num_shards=SHARDS, cache_size=64).build(keys)
        assert isinstance(server._stats._lock, TrackedLock)
        answers: list[list[object]] = [[] for _ in range(THREADS)]

        def worker(tid: int) -> None:
            # Overlapping hot keys (hits) and per-thread cold keys (misses).
            window = [Request(op=Op.LOOKUP, key=float((tid * 37 + i * i) % 400))
                      for i in range(OPS)]
            for start in range(0, OPS, 16):
                tickets = [server.submit(r) for r in window[start:start + 16]]
                answers[tid] += [t.result(timeout=30.0).value for t in tickets]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force hand-offs mid-submit and mid-completion
        try:
            run_threads(worker)
            snap = server.stats()
        finally:
            sys.setswitchinterval(interval)
            server.close()
        # Key k of arange(400) has global rank k.
        assert answers == [[(tid * 37 + i * i) % 400 for i in range(OPS)]
                           for tid in range(THREADS)]
        assert snap["cache_hits"] + snap["cache_misses"] == THREADS * OPS
        assert snap["cache_hits"] == snap["cache"]["hits"] > 0
        assert snap["responses"] == THREADS * OPS
        assert snap["latency"]["count"] == float(THREADS * OPS)


class TestResultCacheStress:
    def test_disjoint_key_spaces_give_exact_hit_miss_counts(self):
        cache = ResultCache(capacity=THREADS * OPS + 1)
        assert isinstance(cache._lock, TrackedLock)

        def worker(tid: int) -> None:
            for i in range(OPS):
                cache.put(("t", tid, i), tid * OPS + i)
            for i in range(OPS):
                assert cache.get(("t", tid, i)) == tid * OPS + i
            for i in range(OPS):
                assert cache.get(("absent", tid, i), default=None) is None

        run_threads(worker)
        snap = cache.snapshot()
        assert snap["entries"] == THREADS * OPS
        assert snap["hits"] == THREADS * OPS
        assert snap["misses"] == THREADS * OPS
        assert snap["evictions"] == 0
        assert snap["expirations"] == 0

    def test_eviction_count_is_exact_past_capacity(self):
        capacity = 256
        cache = ResultCache(capacity=capacity)

        def worker(tid: int) -> None:
            for i in range(OPS):
                cache.put(("t", tid, i), i)

        run_threads(worker)
        snap = cache.snapshot()
        assert snap["entries"] == capacity
        assert snap["evictions"] == THREADS * OPS - capacity
        assert len(cache) == capacity
