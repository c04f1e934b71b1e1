"""Route once: a queued run carries the bounds version it was routed under.

The coalescer reads ``store.bounds_version`` before it routes a window
(or a single request), and the executors route the rows again only when
a rebalance has moved that version since (``ShardedStore.reroute``).
These tests park a server's requests in its queues (no coalescer thread
runs), land a rebalance that moves queued keys to other shards, and
then drain: every answer must equal a dict oracle, on both backends.  A
spy pins the saving: with no rebalance, a live window is routed exactly
once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import MULTI_DIM_FACTORIES, MUTABLE_ONE_DIM_FACTORIES
from repro.serve import IndexServer, Op, Request
from repro.serve.mp import ProcessShardExecutor

_ONE_DIM = MUTABLE_ONE_DIM_FACTORIES["dynamic-pgm"]
_MULTI_DIM = MULTI_DIM_FACTORIES["zm-index"]
_BACKENDS = ["thread", "process"]

# Quantile bounds of arange(1000) over 4 shards are (250, 500, 750);
# these move every key in (300, 750] to a later shard.
_ONE_DIM_BOUNDS = [100.0, 200.0, 300.0]


def _parked_server(factory, data, values, backend, cache_size=0, num_shards=4):
    """An ``IndexServer`` whose requests wait in their queues until
    ``_coalescer.flush()``: its store is built and, on the process
    backend, its workers run, but no coalescer thread drains."""
    server = IndexServer(factory, num_shards=num_shards, cache_size=cache_size,
                         backend=backend)
    server.store.build(data, values)
    if backend == "process":
        server._executor = ProcessShardExecutor(server.store, server.server_stats)
        server._executor.start()
        server._coalescer.executor = server._executor
    return server


def _one_dim(backend, cache_size=0):
    keys = np.arange(0.0, 1000.0)
    oracle = {float(k): f"v{int(k)}" for k in keys}
    server = _parked_server(_ONE_DIM, keys, list(oracle.values()), backend, cache_size)
    return server, oracle


def _multi_dim(backend, cache_size=0):
    pts = np.random.default_rng(11).uniform(0.0, 100.0, (400, 2))
    oracle = {tuple(map(float, p)): f"p{i}" for i, p in enumerate(pts)}
    server = _parked_server(_MULTI_DIM, pts, list(oracle.values()), backend, cache_size)
    return server, oracle


def _one_dim_reads():
    probe = [float(k) for k in range(0, 1000, 7)] + [0.5, 640.25, -3.0, 2000.0]
    return ([Request(op=Op.LOOKUP, key=k) for k in probe]
            + [Request(op=Op.CONTAINS, key=k) for k in probe[::3]])


def _multi_dim_reads(oracle):
    stored = list(oracle)
    absent = [tuple(map(float, p))
              for p in np.random.default_rng(5).uniform(0.0, 100.0, (20, 2))]
    return [Request(op=Op.POINT_QUERY, point=p) for p in stored[::3] + absent]


def _expected(oracle, requests):
    """What an unsharded index answers, the requests applied in order."""
    state = dict(oracle)
    out: list[object] = []
    for r in requests:
        target = r.point if r.op is Op.POINT_QUERY else r.key
        if r.op is Op.INSERT:
            state[r.key] = r.value
            out.append(None)
        elif r.op is Op.DELETE:
            out.append(state.pop(r.key, None) is not None)
        elif r.op is Op.CONTAINS:
            out.append(target in state)
        else:
            out.append(state.get(target))
    return out


def _rebalance(server):
    """Move queued keys to other shards: explicit bounds in 1-d, a
    corner-heavy sample in multi-d."""
    store = server.store
    if store.multi_dim:
        sample = np.random.default_rng(12).uniform(0.0, 20.0, (256, 2))
        return store.rebalance(sample=sample)
    return store.rebalance(bounds=_ONE_DIM_BOUNDS)


def _homes(server, requests):
    return server.store.route_columns(requests)[1].tolist()


def _drain_after_rebalance(server, requests, enqueue):
    """Enqueue, land a rebalance that moves some queued rows, then drain."""
    pending = enqueue(requests)
    before = _homes(server, requests)
    _rebalance(server)
    assert before != _homes(server, requests), "the rebalance must move queued rows"
    server._coalescer.flush()
    return pending


def _ticket_values(tickets):
    return [t.result(timeout=10.0).value for t in tickets]


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("dims", [1, 2])
def test_window_survives_a_rebalance_between_enqueue_and_dispatch(backend, dims):
    server, oracle = (_one_dim if dims == 1 else _multi_dim)(backend)
    requests = _one_dim_reads() if dims == 1 else _multi_dim_reads(oracle)
    with server:
        window = _drain_after_rebalance(server, requests, server._coalescer.submit_window)
        assert window.wait() == _expected(oracle, requests)


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("cache_size", [0, 64])
@pytest.mark.parametrize("dims", [1, 2])
def test_per_request_submit_survives_a_rebalance(backend, cache_size, dims):
    server, oracle = (_one_dim if dims == 1 else _multi_dim)(backend, cache_size)
    requests = _one_dim_reads() if dims == 1 else _multi_dim_reads(oracle)
    with server:
        tickets = _drain_after_rebalance(
            server, requests, lambda reqs: [server.submit(r) for r in reqs])
        expected = _expected(oracle, requests)
        assert _ticket_values(tickets) == expected
        # Again under the new bounds: a cached answer keyed on the old
        # generations is unreachable, and the misses route afresh.
        again = [server.submit(r) for r in requests]
        server._coalescer.flush()
        assert _ticket_values(again) == expected


@pytest.mark.parametrize("backend", _BACKENDS)
def test_hoisted_reads_and_writes_survive_a_rebalance(backend):
    server, oracle = _one_dim(backend)
    requests = [
        Request(op=Op.LOOKUP, key=600.0),
        Request(op=Op.INSERT, key=600.5, value="new"),
        Request(op=Op.LOOKUP, key=610.0),          # hoisted: no earlier write touches it
        Request(op=Op.LOOKUP, key=600.5),          # sees the insert
        Request(op=Op.DELETE, key=620.0),
        Request(op=Op.LOOKUP, key=620.0),          # sees the delete
        Request(op=Op.LOOKUP, key=630.0),
        Request(op=Op.CONTAINS, key=640.0),
        Request(op=Op.LOOKUP, key=40.0),           # a shard the rebalance keeps
        Request(op=Op.INSERT, key=40.5, value="low"),
        Request(op=Op.LOOKUP, key=40.5),
        Request(op=Op.LOOKUP, key=45.0),
    ]
    with server:
        window = _drain_after_rebalance(server, requests, server._coalescer.submit_window)
        assert window.wait() == _expected(oracle, requests)
        after = server._coalescer.submit_window(
            [Request(op=Op.LOOKUP, key=k) for k in (600.5, 620.0, 40.5, 610.0)])
        server._coalescer.flush()
        assert after.wait() == ["new", None, "low", "v610"]


def _spy_routes(store):
    """Count every route of a column: the enqueue route of a window and
    each re-route of a queued run (``reroute`` routes through
    ``_route_column`` too)."""
    calls = {"route": 0}
    route_column = store._route_column

    def counted_route(column):
        calls["route"] += 1
        return route_column(column)

    store._route_column = counted_route
    return calls


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_live_window_is_routed_once(backend):
    pts = np.random.default_rng(3).uniform(0.0, 100.0, (2000, 2))
    with IndexServer(_MULTI_DIM, num_shards=2, backend=backend).build(pts) as server:
        calls = _spy_routes(server.store)
        windows = 6
        for w in range(windows):
            rows = np.random.default_rng(w).integers(0, len(pts), 512)
            window = [Request(op=Op.POINT_QUERY, point=tuple(map(float, pts[i])))
                      for i in rows]
            assert server.serve_window(window) == rows.tolist()
        assert calls == {"route": windows}
        # A window enqueued after a rebalance carries the new version, so
        # its enqueue route is still its only one.
        server.store.rebalance(sample=pts[:300])
        calls["route"] = 0
        window = [Request(op=Op.POINT_QUERY, point=tuple(map(float, p))) for p in pts[:64]]
        assert server.serve_window(window) == list(range(64))
        assert calls == {"route": 1}


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_parked_window_is_routed_again_once_per_dispatch(backend):
    """A rebalance between enqueue and dispatch costs one re-route per
    shard run, on top of the window's enqueue route."""
    server, oracle = _multi_dim(backend)
    requests = _multi_dim_reads(oracle)
    with server:
        queued = set(_homes(server, requests))
        calls = _spy_routes(server.store)
        window = server._coalescer.submit_window(requests)
        assert calls == {"route": 1}
        _rebalance(server)
        server._coalescer.flush()
        assert window.wait() == _expected(oracle, requests)
        assert calls == {"route": 1 + len(queued)}


class TestPointWidth:
    """A point of the wrong width is a ``ValueError`` at submit, also when
    a long point and a short one hold the right number of coordinates."""

    @pytest.mark.parametrize("points", [
        [(1.0, 2.0, 3.0)],
        [(1.0,), (1.0, 2.0, 3.0)],
        [(1.0, 2.0), (1.0, 2.0, 3.0), (1.0,)],
    ])
    def test_wrong_width_window_raises(self, points):
        pts = np.random.default_rng(4).uniform(0.0, 100.0, (200, 2))
        with IndexServer(_MULTI_DIM, num_shards=2).build(pts) as server:
            with pytest.raises(ValueError, match="coordinates"):
                server.serve_window([Request(op=Op.POINT_QUERY, point=p) for p in points])
            mixed = [Request(op=Op.RANGE_QUERY, low=(0.0, 0.0), high=(1.0, 1.0)),
                     Request(op=Op.POINT_QUERY, point=points[-1])]
            with pytest.raises(ValueError, match="coordinates"):
                server.serve_window(mixed)
            good = tuple(map(float, pts[7]))
            assert server.serve_window([Request(op=Op.POINT_QUERY, point=good)]) == [7]
