"""Re-partitioning: rebalance parity, atomic generation bumps, cache safety.

The load-bearing invariant: :meth:`ShardedStore.rebalance` swaps every
shard under all shard locks and bumps *all* generations in the same
critical section, so a result-cache entry keyed on any pre-rebalance
generation tuple becomes unreachable at once, and concurrent readers
never observe a half-moved partition.  This is the contract the
``repro.tune`` actuator relies on for every action it applies.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines import SortedArrayIndex
from repro.bench.runner import (
    MULTI_DIM_FACTORIES,
    MUTABLE_ONE_DIM_FACTORIES,
    ONE_DIM_FACTORIES,
)
from repro.serve import IndexServer, Op, Request, ShardedStore


def _keys(n=600):
    rng = np.random.default_rng(7)
    return np.unique(rng.uniform(0.0, 1e6, n))


class TestRebalanceParity:
    def test_answers_survive_a_skewed_sample_rebalance(self):
        keys = _keys()
        direct = SortedArrayIndex().build(keys)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        # Re-fit boundaries to a sample concentrated in one decile.
        sample = np.linspace(0.0, 1e5, 512)
        version = store.rebalance(sample=sample)
        assert version == 1
        assert sum(store.shard_sizes()) == keys.size
        for key in keys[::7]:
            assert store.lookup(float(key)) == direct.lookup(float(key))
        lo, hi = 2e5, 8e5
        assert store.range_query_1d(lo, hi) == direct.range_query(lo, hi)

    def test_explicit_bounds_and_validation(self):
        keys = _keys()
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        store.rebalance(bounds=[1e5, 2e5, 3e5])
        assert store.bounds.tolist() == [1e5, 2e5, 3e5]
        with pytest.raises(ValueError):
            store.rebalance(bounds=[1.0, 2.0])  # needs num_shards - 1
        with pytest.raises(ValueError):
            store.rebalance(bounds=[3e5, 2e5, 1e5])  # must be sorted

    def test_nan_never_becomes_a_bound(self):
        """A NaN bound orders differently under the scalar routes' bisect
        and the vectorized ``searchsorted``: explicit NaN bounds are
        refused and NaN samples dropped before the split."""
        keys = _keys()
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        with pytest.raises(ValueError, match="NaN"):
            store.rebalance(bounds=[1e5, 2e5, np.nan])
        store.rebalance(sample=np.array([1e5, 2e5, 3e5, 4e5] + [np.nan] * 12))
        assert store.bounds.tolist() == [2e5, 3e5, 4e5]
        pts = np.random.default_rng(3).uniform(0.0, 100.0, (200, 2))
        md = ShardedStore(MULTI_DIM_FACTORIES["zm-index"], num_shards=2).build(pts)
        md.rebalance(sample=np.vstack([pts[:40], np.full((80, 2), np.nan)]))
        assert md.bounds.tolist() == md._split_bounds(md._encode(pts[:40])).tolist()
        assert len(store) == keys.size and len(md) == 200

    def test_multi_dim_rebalance_parity(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 100.0, (400, 2))
        direct = MULTI_DIM_FACTORIES["zm-index"]().build(pts)
        store = ShardedStore(MULTI_DIM_FACTORIES["zm-index"],
                             num_shards=4).build(pts)
        store.rebalance(sample=rng.uniform(0.0, 30.0, (256, 2)))
        lo, hi = (10.0, 10.0), (60.0, 60.0)
        assert sorted(map(repr, store.range_query(lo, hi))) == \
            sorted(map(repr, direct.range_query(lo, hi)))

    def test_generation_bump_is_atomic_across_all_shards(self):
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(_keys())
        before_gens = list(store.generations)
        before_version = store.bounds_version
        store.rebalance()
        assert list(store.generations) == [g + 1 for g in before_gens]
        assert store.bounds_version == before_version + 1

    def test_rebuild_and_retune_bump_only_their_shard(self):
        store = ShardedStore(MUTABLE_ONE_DIM_FACTORIES["dynamic-pgm"],
                             num_shards=3).build(_keys())
        before = list(store.generations)
        store.rebuild_shard(1)
        assert list(store.generations) == [before[0], before[1] + 1, before[2]]
        # SortedArray/dynamic-PGM have no tune hook: retune is a typed no-op.
        assert store.retune_shard(0, [((0.0,), (1.0,))]) is False
        assert store.generations[0] == before[0]

    @pytest.mark.parametrize("name", ["rmi", "lipp"])
    def test_repartitioning_keeps_every_key(self, name):
        """Re-partitioning enumerates each shard with an unbounded range
        scan: it must neither raise (rmi) nor come back short (lipp)."""
        keys = _keys()
        direct = SortedArrayIndex().build(keys)
        with IndexServer(ONE_DIM_FACTORIES[name], num_shards=3).build(keys) as server:
            server.store.rebalance(sample=np.linspace(0.0, 2e5, 256))
            server.store.rebuild_shard(0)
            assert len(server) == keys.size
            assert [server.lookup(float(k)) for k in keys[::11]] == [
                direct.lookup(float(k)) for k in keys[::11]]


class TestResultCacheAcrossRebalance:
    """A cached read keyed on pre-rebalance generations must die with them."""

    def test_cached_entry_becomes_unreachable_after_rebalance(self):
        keys = _keys()
        server = IndexServer(SortedArrayIndex, num_shards=4,
                             cache_size=128).build(keys)
        try:
            probe = float(keys[5])
            expected = server.lookup(probe)          # miss, fills cache
            assert server.lookup(probe) == expected  # hit
            hits_before = server.stats()["cache"]["hits"]
            misses_before = server.stats()["cache"]["misses"]
            assert hits_before >= 1
            server.store.rebalance(sample=np.linspace(0.0, 1e5, 256))
            # Same key, same answer — but through a fresh generation
            # tuple, so it must MISS, not serve the dead entry.
            assert server.lookup(probe) == expected
            stats = server.stats()["cache"]
            assert stats["misses"] == misses_before + 1
            assert stats["hits"] == hits_before
        finally:
            server.close()

    def test_insert_after_rebalance_is_not_served_stale(self):
        keys = _keys()
        server = IndexServer(MUTABLE_ONE_DIM_FACTORIES["dynamic-pgm"],
                             num_shards=4, cache_size=128).build(keys)
        try:
            fresh_key = 123456.75
            assert server.lookup(fresh_key) is None   # caches the absence
            server.store.rebalance()
            server.insert(fresh_key, "after-rebalance")
            # The pre-rebalance "absent" entry is unreachable AND the
            # insert bumped the owning shard again: reads see the write.
            assert server.lookup(fresh_key) == "after-rebalance"
        finally:
            server.close()


class TestConcurrentReadsDuringRebalance:
    def test_readers_never_observe_a_half_moved_partition(self):
        keys = np.arange(0.0, 2000.0)
        values = [f"v{int(k)}" for k in keys]
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys, values)
        stop = threading.Event()
        errors: list[str] = []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                k = float(rng.integers(0, 2000))
                got = store.lookup(k)
                if got != f"v{int(k)}":
                    errors.append(f"lookup({k}) -> {got!r}")
                    return

        readers = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
        for thread in readers:
            thread.start()
        try:
            rng = np.random.default_rng(99)
            for _ in range(12):
                store.rebalance(sample=rng.uniform(0.0, 2000.0, 128))
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10.0)
        assert not errors, errors
        assert store.bounds_version == 12


class TestProcessBackendRebalance:
    def test_windows_stay_correct_after_rebalance(self):
        keys = _keys(400)
        direct = SortedArrayIndex().build(keys)
        server = IndexServer(SortedArrayIndex, backend="process",
                             num_shards=2, cache_size=0).build(keys)
        try:
            probe = [float(k) for k in keys[::9]] + [7.5, -3.0]
            window = [Request(op=Op.LOOKUP, key=k) for k in probe]
            expected = [direct.lookup(k) for k in probe]
            assert server.serve_window(window) == expected
            server.store.rebalance(sample=np.linspace(0.0, 3e5, 128))
            # Provenance was cleared: workers must republish snapshots
            # and the parent must re-route before answering.
            assert server.serve_window(window) == expected
        finally:
            server.close()


class TestRebalanceWhileRunsAreQueued:
    """Runs are routed at enqueue time; a rebalance landing before they
    are drained moves rows off the shard whose queue holds them."""

    @staticmethod
    def _queued_window(keys, store, executor=None):
        from repro.serve import Coalescer, ServerStats

        coalescer = Coalescer(store, ServerStats(store.num_shards), executor=executor)
        probe = [float(k) for k in keys[::5]] + [7.5, -3.0]
        requests = [Request(op=Op.LOOKUP, key=k) for k in probe]
        requests += [Request(op=Op.CONTAINS, key=k) for k in probe]
        return coalescer, probe, coalescer.submit_window(requests)

    def test_moved_rows_fall_back_to_scalar_and_every_slot_is_right(self):
        keys = _keys()
        direct = SortedArrayIndex().build(keys)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        coalescer, probe, window = self._queued_window(keys, store)
        scalar_rows = []
        read_scalar = store.read_scalar
        store.read_scalar = lambda op, row: (scalar_rows.append(op),
                                             read_scalar(op, row))[1]
        store.rebalance(sample=np.linspace(0.0, 1e5, 512))   # queues now mis-routed
        assert coalescer.flush() == 2 * len(probe)
        assert window.wait() == ([direct.lookup(k) for k in probe]
                                 + [direct.contains(k) for k in probe])
        assert Op.LOOKUP in scalar_rows and Op.CONTAINS in scalar_rows
        assert len(scalar_rows) < 2 * len(probe)    # still-owned rows used the kernel

    def test_process_backend_strays_execute_on_the_parent(self):
        from repro.serve import ServerStats
        from repro.serve.mp import ProcessShardExecutor

        keys = _keys(400)
        direct = SortedArrayIndex().build(keys)
        store = ShardedStore(SortedArrayIndex, num_shards=2).build(keys)
        with ProcessShardExecutor(store, ServerStats(2)) as executor:
            coalescer, probe, window = self._queued_window(keys, store, executor)
            store.rebalance(sample=np.linspace(0.0, 2e5, 256))
            coalescer.flush()
            assert window.wait() == ([direct.lookup(k) for k in probe]
                                     + [direct.contains(k) for k in probe])
