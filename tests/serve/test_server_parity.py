"""Serving-path parity: IndexServer answers == direct scalar answers.

The acceptance property of the serving layer: for every E19 contender,
a random query workload answered through shards + coalescer + cache is
exactly what the bare index returns — including after inserts and
deletes on the mutable indexes, which exercises generation-based cache
invalidation.  Multi-d range results are compared as sorted multisets,
matching the repo-wide range contract (each index class has its own
internal result order).
"""

import numpy as np
import pytest

from repro.bench.runner import (
    MULTI_DIM_FACTORIES,
    MUTABLE_MULTI_DIM_FACTORIES,
    MUTABLE_ONE_DIM_FACTORIES,
    ONE_DIM_FACTORIES,
)
from repro.bench.serving import DEFAULT_E19_MULTI_DIM, DEFAULT_E19_ONE_DIM
from repro.serve import IndexServer, Op, Request


def _server(factory, data, **kwargs):
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault("cache_size", 128)
    return IndexServer(factory, **kwargs).build(data)


@pytest.mark.parametrize("name", DEFAULT_E19_ONE_DIM)
def test_one_dim_random_workload_parity(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    keys = rng.uniform(0.0, 1e6, 800)
    direct = ONE_DIM_FACTORIES[name]().build(keys)
    server = _server(ONE_DIM_FACTORIES[name], keys)
    try:
        for _ in range(150):
            op = rng.integers(0, 3)
            if op == 0:
                key = float(rng.choice(keys)) if rng.random() < 0.7 \
                    else float(rng.uniform(-1e5, 2e6))
                assert server.lookup(key) == direct.lookup(key)
            elif op == 1:
                key = float(rng.choice(keys)) if rng.random() < 0.5 \
                    else float(rng.uniform(-1e5, 2e6))
                assert server.contains(key) == direct.contains(key)
            else:
                lo, hi = np.sort(rng.uniform(0.0, 1e6, 2))
                assert server.range_query_1d(lo, hi) == direct.range_query(lo, hi)
        assert server.stats()["cache"]["hits"] >= 0
    finally:
        server.close()


@pytest.mark.parametrize("name", DEFAULT_E19_MULTI_DIM)
def test_multi_dim_random_workload_parity(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    pts = rng.uniform(0.0, 100.0, (700, 2))
    direct = MULTI_DIM_FACTORIES[name]().build(pts)
    server = _server(MULTI_DIM_FACTORIES[name], pts)
    try:
        for _ in range(80):
            op = rng.integers(0, 3)
            if op == 0:
                point = pts[int(rng.integers(0, len(pts)))] if rng.random() < 0.7 \
                    else rng.uniform(-10.0, 120.0, 2)
                assert server.point_query(point) == direct.point_query(point)
            elif op == 1:
                lo = rng.uniform(0.0, 90.0, 2)
                hi = lo + rng.uniform(0.5, 40.0, 2)
                assert sorted(server.range_query(lo, hi)) == sorted(direct.range_query(lo, hi))
            else:
                q = rng.uniform(0.0, 100.0, 2)
                k = int(rng.integers(1, 9))
                assert server.knn_query(q, k) == direct.knn_query(q, k)
    finally:
        server.close()


@pytest.mark.parametrize("name", sorted(set(MUTABLE_ONE_DIM_FACTORIES)
                                        & set(DEFAULT_E19_ONE_DIM)))
def test_mutable_one_dim_parity_after_writes(name):
    rng = np.random.default_rng(42)
    keys = rng.uniform(0.0, 1e6, 600)
    direct = MUTABLE_ONE_DIM_FACTORIES[name]().build(keys)
    server = _server(MUTABLE_ONE_DIM_FACTORIES[name], keys)
    try:
        inserted = []
        for step in range(120):
            op = rng.integers(0, 4)
            if op == 0:
                key = float(rng.uniform(0.0, 1e6))
                server.insert(key, f"w{step}")
                direct.insert(key, f"w{step}")
                inserted.append(key)
            elif op == 1 and inserted:
                key = inserted.pop(int(rng.integers(0, len(inserted))))
                assert server.delete(key) == direct.delete(key)
            else:
                pool = inserted if (inserted and rng.random() < 0.5) else keys
                key = float(rng.choice(pool))
                # The same read repeats across generations: a stale cache
                # entry from before a write would break this equality.
                assert server.lookup(key) == direct.lookup(key)
                assert server.lookup(key) == direct.lookup(key)
    finally:
        server.close()


@pytest.mark.parametrize("name", sorted(set(MUTABLE_MULTI_DIM_FACTORIES)
                                        & set(DEFAULT_E19_MULTI_DIM)))
def test_mutable_multi_dim_parity_after_writes(name):
    rng = np.random.default_rng(43)
    pts = rng.uniform(0.0, 100.0, (500, 2))
    direct = MUTABLE_MULTI_DIM_FACTORIES[name]().build(pts)
    server = _server(MUTABLE_MULTI_DIM_FACTORIES[name], pts)
    try:
        inserted = []
        for step in range(80):
            op = rng.integers(0, 4)
            if op == 0:
                point = tuple(rng.uniform(0.0, 100.0, 2))
                server.insert(point, f"w{step}")
                direct.insert(point, f"w{step}")
                inserted.append(point)
            elif op == 1 and inserted:
                point = inserted.pop(int(rng.integers(0, len(inserted))))
                assert server.delete(point) == direct.delete(point)
            elif op == 2:
                pool = inserted if (inserted and rng.random() < 0.5) else [tuple(p) for p in pts[:50]]
                point = pool[int(rng.integers(0, len(pool)))]
                assert server.point_query(point) == direct.point_query(point)
                assert server.point_query(point) == direct.point_query(point)
            else:
                lo = rng.uniform(0.0, 90.0, 2)
                hi = lo + rng.uniform(0.5, 30.0, 2)
                assert sorted(server.range_query(lo, hi)) == sorted(direct.range_query(lo, hi))
    finally:
        server.close()


def test_cache_serves_repeated_reads():
    rng = np.random.default_rng(5)
    keys = rng.uniform(0.0, 1e6, 400)
    server = _server(ONE_DIM_FACTORIES["rmi"], keys, cache_size=64)
    try:
        hot = float(keys[0])
        first = server.lookup(hot)
        for _ in range(5):
            assert server.lookup(hot) == first
        assert server.stats()["cache"]["hits"] >= 5
    finally:
        server.close()


def test_cache_hit_returns_a_ticket_that_is_already_done():
    rng = np.random.default_rng(8)
    keys = rng.uniform(0.0, 1e6, 300)
    server = _server(ONE_DIM_FACTORIES["pgm"], keys, cache_size=64)
    try:
        request = Request(op=Op.LOOKUP, key=float(np.sort(keys)[5]))
        first = server.submit(request)
        assert first.result(timeout=10.0).value == 5
        hits = server.stats()["cache_hits"]
        second = server.submit(request)
        assert second.done()
        assert second.result(timeout=0) == first.result()
        stats = server.stats()
        assert stats["cache_hits"] == hits + 1
        assert stats["responses"] == 2
    finally:
        server.close()


def test_write_invalidates_cached_read():
    rng = np.random.default_rng(6)
    keys = rng.uniform(0.0, 1e6, 400)
    server = _server(MUTABLE_ONE_DIM_FACTORIES["alex"], keys, cache_size=64)
    try:
        key = 777.5
        assert server.lookup(key) is None
        assert server.lookup(key) is None           # cached miss
        server.insert(key, "fresh")
        assert server.lookup(key) == "fresh"        # generation bumped
    finally:
        server.close()


def test_overloaded_sync_call_raises_runtime_error():
    from repro.serve import Overloaded, Ticket

    rng = np.random.default_rng(7)
    keys = rng.uniform(0.0, 1e6, 300)
    server = _server(ONE_DIM_FACTORIES["rmi"], keys, cache_size=0)
    try:
        # Force the shed path: a pre-resolved Overloaded ticket from submit.
        class _Shedding:
            def submit(self, request, callback=None):
                return Ticket(Overloaded(depth=9))

        real = server._coalescer
        server._coalescer = _Shedding()
        try:
            with pytest.raises(RuntimeError, match="overloaded"):
                server.lookup(float(keys[0]))
        finally:
            server._coalescer = real
    finally:
        server.close()
