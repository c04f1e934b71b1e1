"""Process-backend tests: parity, snapshot freshness, fault containment.

The contract under test: ``backend="process"`` must be observationally
identical to the thread backend — same answers, same read-your-writes
ordering — with worker crashes surfacing as typed
:class:`~repro.serve.requests.WorkerError` responses (never a hung
window or a raw ``BrokenPipeError``) and zero shared-memory segments
left behind after ``close()``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.runner import (
    MULTI_DIM_FACTORIES,
    MUTABLE_ONE_DIM_FACTORIES,
    ONE_DIM_FACTORIES,
)
from repro.serve import IndexServer, Op, Request, WorkerError
from repro.serve.shm import list_repro_segments

N_SHARDS = 2


def _process_server(factory, data, **kwargs):
    kwargs.setdefault("num_shards", N_SHARDS)
    kwargs.setdefault("cache_size", 0)  # raw window path: batches hit workers
    return IndexServer(factory, backend="process", **kwargs).build(data)


def _wait_for_exit(proc, timeout=5.0):
    deadline = time.monotonic() + timeout
    while proc.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not proc.is_alive(), "worker did not exit in time"


@pytest.mark.parametrize("name", ["rmi", "pgm", "b+tree"])
def test_one_dim_window_parity(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    keys = rng.uniform(0.0, 1e6, 700)
    direct = ONE_DIM_FACTORIES[name]().build(keys)
    with _process_server(ONE_DIM_FACTORIES[name], keys) as server:
        probe = [float(k) for k in rng.choice(keys, 60)]
        probe += [float(k) for k in rng.uniform(-1e5, 2e6, 20)]
        lookups = [Request(op=Op.LOOKUP, key=k) for k in probe]
        assert server.serve_window(lookups) == [direct.lookup(k) for k in probe]
        contains = [Request(op=Op.CONTAINS, key=k) for k in probe]
        assert server.serve_window(contains) == [direct.contains(k) for k in probe]
        assert server.stats()["backend"] == "process"


@pytest.mark.parametrize("name", ["zm-index", "grid"])
def test_multi_dim_window_parity(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    pts = rng.uniform(0.0, 100.0, (500, 2))
    direct = MULTI_DIM_FACTORIES[name]().build(pts)
    with _process_server(MULTI_DIM_FACTORIES[name], pts) as server:
        probe = [tuple(map(float, pts[i])) for i in range(0, 500, 9)]
        probe += [tuple(map(float, p)) for p in rng.uniform(-5.0, 110.0, (15, 2))]
        window = [Request(op=Op.POINT_QUERY, point=p) for p in probe]
        assert server.serve_window(window) == [direct.point_query(p) for p in probe]


def test_read_your_writes_through_worker_batches():
    """A write republishes the shard snapshot before the next worker batch."""
    rng = np.random.default_rng(7)
    keys = rng.uniform(0.0, 1e6, 400)
    with _process_server(MUTABLE_ONE_DIM_FACTORIES["alex"], keys) as server:
        for step in range(5):
            new_key = 2e6 + step
            server.insert(new_key, f"v{step}")
            # A window with repeats keeps the run length >= 2, so the
            # lookups go to the worker process, not the scalar fallback.
            window = [Request(op=Op.LOOKUP, key=new_key)] * 4
            assert server.serve_window(window) == [f"v{step}"] * 4
        executor = server._executor
        assert executor is not None
        # After serving, every worker must have remapped to the store's
        # current generation — a stale snapshot never outlives a read.
        assert executor.worker_generations() == list(server.store.generations)


def test_stale_generation_republished_lazily():
    """Writes alone leave workers stale; the next dispatch syncs them."""
    rng = np.random.default_rng(8)
    keys = rng.uniform(0.0, 1e6, 300)
    with _process_server(MUTABLE_ONE_DIM_FACTORIES["b+tree"], keys) as server:
        executor = server._executor
        baseline = executor.worker_generations()
        for i in range(6):
            server.delete(float(keys[i]))
        # Republication is lazy: dispatching the window (not the write
        # itself) is what remaps the worker, and the remap happens
        # *before* the batch executes.
        probe = [Request(op=Op.CONTAINS, key=float(keys[i])) for i in range(6)] * 2
        values = server.serve_window(probe)
        assert values == [False] * 12
        synced = executor.worker_generations()
        assert synced == list(server.store.generations)
        assert synced != baseline


def test_worker_crash_sheds_window_as_typed_responses():
    rng = np.random.default_rng(9)
    keys = rng.uniform(0.0, 1e6, 300)
    with _process_server(ONE_DIM_FACTORIES["rmi"], keys) as server:
        executor = server._executor
        shard = 0
        proc = executor._procs[shard]
        executor.debug_crash(shard)
        _wait_for_exit(proc)
        # Disable the pre-dispatch liveness probe so the window is
        # committed to the dead worker — the mid-flight death path.
        executor._guard_alive = lambda s: None
        shard_keys = [float(k) for k in keys
                      if server.store.route(Request(op=Op.LOOKUP, key=float(k)))[0] == shard]
        window = [Request(op=Op.LOOKUP, key=k) for k in shard_keys[:8]]
        values = server.serve_window(window)
        assert len(values) == 8
        assert all(isinstance(v, WorkerError) for v in values)
        assert all(v.shard == shard and not v.ok for v in values)
        # The executor restarted the worker behind the scenes; once the
        # probe is back the shard serves correct answers again.
        del executor._guard_alive  # restore the class implementation
        assert server.stats()["worker_restarts"] >= 1
        direct = [server.lookup(k) for k in shard_keys[:4]]
        assert all(v is not None for v in direct)


def test_worker_crash_mid_window_fails_every_slot_of_every_fused_run():
    """Two windows' runs fused into the dying kernel call both get typed
    errors on every slot; the other shard's runs are answered normally."""
    from repro.serve import Coalescer, ServerStats, ShardedStore
    from repro.serve.mp import ProcessShardExecutor

    rng = np.random.default_rng(12)
    keys = rng.uniform(0.0, 1e6, 300)
    direct = ONE_DIM_FACTORIES["rmi"]().build(keys)
    store = ShardedStore(ONE_DIM_FACTORIES["rmi"], num_shards=2).build(keys)
    stats = ServerStats(2)
    with ProcessShardExecutor(store, stats) as executor:
        coalescer = Coalescer(store, stats, executor=executor)   # drained by flush()
        windows, homes = [], []
        for chunk in (keys[:40], keys[40:100]):
            requests = [Request(op=Op.LOOKUP, key=float(k)) for k in chunk]
            homes.append(store.route_home_batch(requests))
            windows.append(coalescer.submit_window(requests))
        proc = executor._procs[0]
        executor.debug_crash(0)
        _wait_for_exit(proc)
        executor._guard_alive = lambda s: None       # commit the batch to the dead worker
        coalescer.flush()
        del executor._guard_alive
        for window, chunk, home in zip(windows, (keys[:40], keys[40:100]), homes):
            assert 0 in home and 1 in home
            for value, key, shard in zip(window.wait(), chunk, home):
                if shard == 0:
                    assert isinstance(value, WorkerError) and value.shard == 0
                else:
                    assert value == direct.lookup(key)
        assert stats.worker_restarts == 1
        assert stats.responses == sum(h.count(1) for h in homes)


def test_dead_worker_restarted_before_dispatch_serves_cleanly():
    """The liveness probe path: a crash between windows is invisible."""
    rng = np.random.default_rng(10)
    keys = rng.uniform(0.0, 1e6, 300)
    direct = ONE_DIM_FACTORIES["pgm"]().build(keys)
    with _process_server(ONE_DIM_FACTORIES["pgm"], keys) as server:
        executor = server._executor
        proc = executor._procs[1]
        executor.debug_crash(1)
        _wait_for_exit(proc)
        probe = [float(k) for k in rng.choice(keys, 24)]
        window = [Request(op=Op.LOOKUP, key=k) for k in probe]
        assert server.serve_window(window) == [direct.lookup(k) for k in probe]
        assert server.stats()["worker_restarts"] == 1


def test_worker_query_costs_merge_into_server_stats():
    rng = np.random.default_rng(11)
    keys = rng.uniform(0.0, 1e6, 400)
    with _process_server(ONE_DIM_FACTORIES["rmi"], keys) as server:
        before = server.stats()["index"]
        window = [Request(op=Op.LOOKUP, key=float(k))
                  for k in rng.choice(keys, 64)]
        server.serve_window(window)
        after = server.stats()["index"]
        # The batch ran in worker processes — the parent executed none of
        # these lookups, so any counter growth proves the pipe drain
        # merged worker-side deltas into the server snapshot.
        assert after["model_predictions"] > before["model_predictions"]


def test_close_releases_every_segment_and_is_idempotent():
    rng = np.random.default_rng(12)
    keys = rng.uniform(0.0, 1e6, 200)
    server = _process_server(ONE_DIM_FACTORIES["pgm"], keys)
    try:
        assert len(list_repro_segments()) >= N_SHARDS
    finally:
        server.close()
    assert list_repro_segments() == []
    server.close()  # second close is a no-op


def test_thread_backend_never_spawns_workers_or_segments():
    rng = np.random.default_rng(13)
    keys = rng.uniform(0.0, 1e6, 200)
    with IndexServer(ONE_DIM_FACTORIES["pgm"], num_shards=2,
                     backend="thread").build(keys) as server:
        assert server._executor is None
        assert list_repro_segments() == []
        assert server.stats()["backend"] == "thread"


def test_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        IndexServer(ONE_DIM_FACTORIES["pgm"], backend="greenlet")
