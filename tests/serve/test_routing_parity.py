"""Scalar routing agrees with vectorized routing, bound for bound.

The scalar routes (``route_key``, ``route``, ``route_point``,
``_range_shards``) bisect a Python-list copy of the shard bounds, while
window routing (``route_columns``) and every under-lock re-validation
run ``np.searchsorted(bounds, ..., side="right")`` over the array.  The
two must name the same shard for every key, or a request routed one way
is re-validated as "moved" the other way and read from a shard that
does not own it.  Probes concentrate where orderings differ: NaN,
``±inf``, ``±0.0``, keys equal to a bound, their ``nextafter``
neighbours and the neighbours of ``2**53``.  Each check runs after
``build``, after ``rebalance`` (explicit bounds and a sample) and after
a snapshot restore on both serving backends — every place the bounds
are assigned — so a stale list copy fails here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import SortedArrayIndex
from repro.multidim.zm_index import ZMIndex
from repro.onedim.rmi import RMIIndex
from repro.serve import IndexServer, Op, Request, ShardedStore

TWO53 = 2.0 ** 53
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, TWO53, -TWO53,
           math.nextafter(TWO53, math.inf), math.nextafter(TWO53, -math.inf),
           5e-324, -5e-324, 1e308, -1e308]
#: Integer keys past 2**53 round to a float64 on their way into a column;
#: the scalar route must round them the same way.
BIG_INTS = [2 ** 53 + 1, 2 ** 53 + 3, -(2 ** 53) - 3, 2 ** 62 + 2 ** 9 + 1]
SETTINGS = dict(deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _keys(n: int = 400, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1e6, 1e6, n)


def _probes(bounds: np.ndarray, extra: list[float]) -> list[float]:
    """Every bound, both of its float neighbours and, where it is an
    int64-sized integer, the integers beside it; the specials; ``extra``."""
    out = list(SPECIAL) + BIG_INTS + list(extra)
    for b in bounds.tolist():
        out += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
        if math.isfinite(b) and b == int(b) and abs(b) < 2.0 ** 63:
            out += [int(b) - 1, int(b) + 1]
    return out


def assert_key_routes_match(store: ShardedStore, probes: list[float]) -> None:
    bounds = store.bounds
    expected = np.searchsorted(bounds, np.array(probes, dtype=np.float64), side="right")
    requests = [Request(op=Op.LOOKUP, key=p) for p in probes]
    homes = store.route_columns(requests)[1].tolist()
    for probe, want, home in zip(probes, expected.tolist(), homes):
        assert store.route_key(probe) == want, (probe, bounds)
        assert store.route(Request(op=Op.LOOKUP, key=probe)) == (want,), probe
        assert store.route(Request(op=Op.CONTAINS, key=probe)) == (want,), probe
        assert home == want, (probe, bounds)
    for low, high in zip(probes, reversed(probes)):
        lo_s, hi_s = np.searchsorted(
            bounds, np.array([low, high], dtype=np.float64), side="right").tolist()
        got = store.route(Request(op=Op.RANGE_1D, low=low, high=high))
        assert got == tuple(range(lo_s, hi_s + 1)), (low, high, bounds)


def assert_point_routes_match(store: ShardedStore, points: np.ndarray) -> None:
    bounds = store.bounds
    codes = store._encode(points)
    expected = np.searchsorted(bounds, codes, side="right").tolist()
    requests = [Request(op=Op.POINT_QUERY, point=tuple(p)) for p in points.tolist()]
    homes = store.route_columns(requests)[1].tolist()
    for request, want, home in zip(requests, expected, homes):
        assert store.route_point(request.point) == want, (request.point, bounds)
        assert store.route(request) == (want,), request.point
        assert home == want, (request.point, bounds)
    for lo, hi in zip(points, points[::-1]):
        box_lo, box_hi = np.minimum(lo, hi), np.maximum(lo, hi)
        lo_s, hi_s = np.searchsorted(
            bounds, store._encode(np.stack([box_lo, box_hi])), side="right").tolist()
        assert store._range_shards(box_lo, box_hi) == tuple(range(lo_s, hi_s + 1))
        assert store.route(Request(op=Op.RANGE_QUERY, low=tuple(box_lo),
                                   high=tuple(box_hi))) == tuple(range(lo_s, hi_s + 1))


def _points(n: int = 300, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 100.0, (n, 2))


def _point_probes(built: np.ndarray, seed: int = 1) -> np.ndarray:
    """The build points (every split code is one of theirs), random points
    and points outside the build box, infinities included."""
    outside = np.array([[-math.inf, 0.0], [math.inf, math.inf], [-1e9, 1e9],
                        [0.0, 0.0], [-0.0, 100.0]])
    return np.vstack([built, _points(40, seed=seed), outside])


# -- 1-d -----------------------------------------------------------------------
class TestOneDim:
    def test_after_build(self):
        keys = _keys()
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        assert_key_routes_match(store, _probes(store.bounds, keys[:20].tolist()))

    @settings(**SETTINGS)
    @given(data=st.data())
    def test_after_rebalance_with_explicit_bounds(self, data):
        keys = _keys(200, seed=1)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        pool = st.one_of(
            st.sampled_from([b for b in SPECIAL if not math.isnan(b)]
                            + [float(k + 1) for k in BIG_INTS]),
            st.sampled_from(keys.tolist()),
            st.floats(allow_nan=False),
        )
        bounds = sorted(data.draw(st.lists(pool, min_size=3, max_size=3)))
        store.rebalance(bounds=bounds)
        assert store.bounds.tolist() == bounds
        extra = data.draw(st.lists(st.floats(allow_nan=True), max_size=8))
        assert_key_routes_match(store, _probes(store.bounds, extra))

    @settings(**SETTINGS)
    @given(sample=st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)),
                           min_size=1, max_size=40))
    def test_after_rebalance_with_a_sample(self, sample):
        keys = _keys(200, seed=2)
        store = ShardedStore(SortedArrayIndex, num_shards=4).build(keys)
        store.rebalance(sample=np.array(sample))
        assert_key_routes_match(store, _probes(store.bounds, sample))
        assert len(store) == keys.size

    def test_after_rebalance_from_own_items(self):
        keys = _keys(300, seed=3)
        store = ShardedStore(SortedArrayIndex, num_shards=3).build(keys)
        store.insert(2e6, "far")
        store.rebalance()
        assert_key_routes_match(store, _probes(store.bounds, [2e6]))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_after_snapshot_restore(self, tmp_path, backend):
        keys = _keys(600, seed=4)
        built = ShardedStore(RMIIndex, num_shards=4).build(keys)
        built.rebalance(bounds=[-TWO53, -0.0, float(np.median(keys))])
        built.save_snapshot(tmp_path / "snap")
        server = IndexServer.from_snapshot(tmp_path / "snap", factory=RMIIndex,
                                           backend=backend)
        try:
            assert server.store.bounds.tolist() == built.bounds.tolist()
            assert_key_routes_match(server.store, _probes(server.store.bounds, []))
            sk = np.sort(keys)
            assert [server.lookup(float(k)) for k in sk[::50]] == list(range(0, 600, 50))
        finally:
            server.close()


# -- multi-d ---------------------------------------------------------------------
class TestMultiDim:
    def test_after_build(self):
        pts = _points()
        store = ShardedStore(ZMIndex, num_shards=4).build(pts)
        assert_point_routes_match(store, _point_probes(pts))

    @settings(**SETTINGS)
    @given(data=st.data())
    def test_after_rebalance_with_explicit_bounds(self, data):
        pts = _points(150, seed=5)
        store = ShardedStore(ZMIndex, num_shards=4).build(pts)
        pool = st.one_of(st.sampled_from(store._encode(pts).tolist()), st.integers(0, 2 ** 32))
        bounds = sorted(data.draw(st.lists(pool, min_size=3, max_size=3)))
        store.rebalance(bounds=bounds)
        assert store.bounds.tolist() == bounds
        assert_point_routes_match(store, _point_probes(pts, seed=data.draw(st.integers(0, 9))))

    def test_after_rebalance_with_a_sample(self):
        pts = _points(200, seed=6)
        store = ShardedStore(ZMIndex, num_shards=4).build(pts)
        sample = np.vstack([pts[:50] * 0.1, [[math.nan, 1.0]]])
        store.rebalance(sample=sample)
        assert_point_routes_match(store, _point_probes(pts))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_after_snapshot_restore(self, tmp_path, backend):
        pts = _points(400, seed=8)
        built = ShardedStore(ZMIndex, num_shards=3).build(pts)
        built.save_snapshot(tmp_path / "snap")
        server = IndexServer.from_snapshot(tmp_path / "snap", factory=ZMIndex,
                                           backend=backend)
        try:
            assert server.store.bounds.tolist() == built.bounds.tolist()
            assert_point_routes_match(server.store, _point_probes(pts))
            assert [server.point_query(p) for p in pts[:20].tolist()] == list(range(20))
        finally:
            server.close()
