"""Signal layer: windowed exactness, observer rings, drift hysteresis."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve.requests import Op, Request
from repro.serve.stats import ServerStats
from repro.tune.signals import (
    DriftDetector,
    StatsWindow,
    WorkloadObserver,
    _Ring,
)


class TestStatsWindowExactness:
    def test_single_thread_deltas_are_exact(self):
        stats = ServerStats(num_shards=2)
        window = StatsWindow(stats, alpha=0.5)
        for _ in range(5):
            stats.record_submit(0, depth=1)
            stats.record_done(0.001)
        stats.record_submit(1, depth=1)
        stats.record_done_many([0.002], writes=1)
        first = window.advance()
        assert first.requests == 6
        assert first.responses == 6
        assert first.writes == 1
        assert first.per_shard_requests == (5, 1)
        # The next window starts from zero deltas.
        second = window.advance()
        assert second.requests == 0
        assert second.per_shard_requests == (0, 0)

    def test_window_latency_histogram_is_reconstructed(self):
        stats = ServerStats(num_shards=1)
        window = StatsWindow(stats)
        stats.record_submit(0, depth=1)
        stats.record_done(0.010)
        first = window.advance()
        assert first.latency["count"] == 1
        stats.record_submit(0, depth=1)
        stats.record_done(0.0001)
        second = window.advance()
        # Only this window's one fast sample — the earlier slow one
        # must not leak into the window percentiles.
        assert second.latency["count"] == 1
        assert second.latency["p99_us"] < first.latency["p99_us"]

    def test_eight_thread_barrier_stress_sums_exactly(self):
        """Windows advanced concurrently with recorders lose no counts."""
        threads_n, per_thread, rounds = 8, 200, 5
        stats = ServerStats(num_shards=4)
        window = StatsWindow(stats)
        barrier = threading.Barrier(threads_n + 1)
        done = threading.Event()

        def recorder(tid: int) -> None:
            for r in range(rounds):
                barrier.wait()
                for i in range(per_thread):
                    shard = (tid + i) % 4
                    stats.record_submit(shard, depth=1)
                    stats.record_done_many([0.0001], writes=int(i % 10 == 0))
                barrier.wait()

        workers = [threading.Thread(target=recorder, args=(t,))
                   for t in range(threads_n)]
        for w in workers:
            w.start()
        windows = []
        try:
            for r in range(rounds):
                barrier.wait()   # release the round
                barrier.wait()   # all recorders finished the round
                windows.append(window.advance())
        finally:
            done.set()
            for w in workers:
                w.join()
        total = threads_n * per_thread * rounds
        assert sum(w.requests for w in windows) == total
        assert sum(w.responses for w in windows) == total
        assert sum(w.writes for w in windows) == threads_n * (per_thread // 10) * rounds
        assert [sum(w.per_shard_requests[s] for w in windows)
                for s in range(4)] == [total // 4] * 4
        assert sum(w.latency["count"] for w in windows) == total

    def test_ewma_seeds_then_decays(self):
        stats = ServerStats(num_shards=1)
        window = StatsWindow(stats, alpha=0.5)
        stats.record_submit(0, depth=1)
        stats.record_done(0.001)
        first = window.advance()
        assert first.ewma_requests == 1.0  # seeded, not decayed from 0
        second = window.advance()
        assert second.ewma_requests == pytest.approx(0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            StatsWindow(ServerStats(num_shards=1), alpha=0.0)


class TestWorkloadObserver:
    def test_observe_and_observe_many_agree(self):
        reqs = [Request(op=Op.LOOKUP, key=float(i)) for i in range(10)]
        reqs += [Request(op=Op.INSERT, key=100.0 + i, value="v")
                 for i in range(5)]
        reqs.append(Request(op=Op.RANGE_1D, low=1.0, high=2.0))
        one = WorkloadObserver(capacity=64)
        for r in reqs:
            one.observe(r)
        many = WorkloadObserver(capacity=64)
        many.observe_many(reqs)
        a, b = one.drain(), many.drain()
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.write_keys, b.write_keys)
        assert (a.reads, a.writes, a.ranges) == (b.reads, b.writes, b.ranges) == (10, 5, 1)

    def test_drain_clears_window_state_but_keeps_rings(self):
        obs = WorkloadObserver(capacity=8)
        obs.observe_many([Request(op=Op.INSERT, key=1.0, value="v")])
        first = obs.drain()
        assert first.write_keys.tolist() == [1.0]
        second = obs.drain()
        assert second.write_keys.size == 0       # strictly per-window
        assert second.keys.tolist() == [1.0]     # recency ring persists
        assert second.writes == 0

    def test_ring_caps_and_wraps(self):
        obs = WorkloadObserver(capacity=4)
        obs.observe_many([Request(op=Op.LOOKUP, key=float(i))
                          for i in range(10)])
        drained = obs.drain()
        assert drained.keys.size == 4
        assert set(drained.keys.tolist()) <= set(float(i) for i in range(10))

    def test_observer_is_callable_as_the_scalar_hook(self):
        obs = WorkloadObserver(capacity=4)
        obs(Request(op=Op.LOOKUP, key=3.0))
        assert obs.drain().reads == 1

    def test_multi_dim_points_and_boxes(self):
        obs = WorkloadObserver(capacity=8, dims=2)
        obs.observe_many([
            Request(op=Op.POINT_QUERY, point=(1.0, 2.0)),
            Request(op=Op.RANGE_QUERY, low=(0.0, 0.0), high=(1.0, 1.0)),
        ])
        drained = obs.drain()
        assert drained.points.shape == (1, 2)
        assert drained.box_lo.shape == (1, 2)
        assert drained.keys.tolist() == [1.0]  # dim-0 projection


class TestRingExtend:
    def test_extend_matches_repeated_push(self):
        for batch in ([1.0, 2.0], list(range(7)), list(range(20))):
            pushed = _Ring(8, 1)
            for v in batch:
                pushed.push(float(v))
            bulk = _Ring(8, 1)
            bulk.extend(np.asarray(batch, dtype=np.float64).reshape(-1, 1))
            assert sorted(pushed.copy().ravel()) == sorted(bulk.copy().ravel())

    def test_extend_wraps_across_the_boundary(self):
        ring = _Ring(4, 1)
        ring.extend(np.asarray([[1.0], [2.0], [3.0]]))
        ring.extend(np.asarray([[4.0], [5.0]]))  # wraps: overwrites 1.0
        assert sorted(ring.copy().ravel()) == [2.0, 3.0, 4.0, 5.0]


class TestDriftDetector:
    def test_holds_on_matching_distribution(self):
        rng = np.random.default_rng(0)
        ref = rng.uniform(0, 1000, 4000)
        det = DriftDetector(ref, bins=16, threshold=0.35, hold=2)
        for _ in range(5):
            score = det.update(rng.uniform(0, 1000, 500))
            assert score < 0.2
        assert not det.fired

    def test_fires_after_hold_windows_of_shift(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(0, 1000, 4000)
        det = DriftDetector(ref, bins=16, threshold=0.35, hold=2)
        shifted = rng.uniform(900, 1000, 500)  # all mass in the top bins
        assert det.update(shifted) > 0.35
        assert not det.fired           # streak 1 < hold 2
        det.update(shifted)
        assert det.fired

    def test_small_windows_are_no_evidence(self):
        rng = np.random.default_rng(2)
        det = DriftDetector(rng.uniform(0, 1, 1000), threshold=0.35,
                            hold=1, min_samples=64)
        det.update(np.full(200, 0.99))
        assert det.fired
        # An under-sampled window neither fires nor clears the streak.
        assert det.update(np.full(3, 0.5)) == 0.0
        assert det.fired

    def test_reset_clears_the_streak(self):
        rng = np.random.default_rng(3)
        det = DriftDetector(rng.uniform(0, 1, 1000), threshold=0.35, hold=1)
        det.update(np.full(200, 0.99))
        assert det.fired
        det.reset()
        assert not det.fired

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            DriftDetector(np.asarray([1.0]))
        with pytest.raises(ValueError):
            DriftDetector(np.asarray([1.0, 2.0]), threshold=0.0)
        with pytest.raises(ValueError):
            DriftDetector(np.asarray([1.0, 2.0]), hold=0)
