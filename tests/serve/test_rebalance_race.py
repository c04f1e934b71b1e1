"""Every routed store path against a rebalance that lands mid-call.

Routing reads the shard bounds without a lock, so each query path must
re-validate its routing after taking a shard lock: an owner call
re-routes the key (or point), a fan-out re-checks ``bounds_version``.
These tests make the race deterministic instead of hoping threads hit
it: every shard lock is replaced by a gate that, the first time the
query reaches for a lock (so after routing, before any lock is held),
runs ``store.rebalance(bounds=...)`` to bounds that move the query's
key to another shard.  kNN reads every shard whatever the bounds, so its
gate fires on the second lock instead: one shard was read under the old
partition, the rest would be read under the new one.  The answer and
every shard's contents must then equal an unsharded oracle that saw the
same operation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import MULTI_DIM_FACTORIES, MUTABLE_ONE_DIM_FACTORIES
from repro.serve import ShardedStore

_ONE_DIM = MUTABLE_ONE_DIM_FACTORIES["dynamic-pgm"]
_MULTI_DIM = MULTI_DIM_FACTORIES["r-tree"]
_NUM_SHARDS = 4


class _RebalanceGate:
    """One shard lock; the query's ``race.at``-th lock take runs a rebalance."""

    def __init__(self, race: "_Race", shard: int, lock: object) -> None:
        self.race = race
        self.shard = shard
        self.lock = lock

    def __enter__(self) -> object:
        race = self.race
        if not race.rebalancing:
            if len(race.locked) == race.at:
                race.rebalancing = True
                try:
                    race.store.rebalance(bounds=race.bounds)
                finally:
                    race.rebalancing = False
            race.locked.append(self.shard)
        return self.lock.__enter__()  # type: ignore[attr-defined]

    def __exit__(self, *exc: object) -> object:
        return self.lock.__exit__(*exc)  # type: ignore[attr-defined]


class _Race:
    """Arms every shard lock of ``store`` with a :class:`_RebalanceGate`."""

    def __init__(self, store: ShardedStore, bounds: np.ndarray, at: int = 0) -> None:
        self.store = store
        self.bounds = bounds
        self.at = at                    # lock takes before the rebalance
        self.rebalancing = False
        self.locked: list[int] = []     # shards the query locked, in order
        self._real = list(store._locks)

    def __enter__(self) -> "_Race":
        self.store._locks = [_RebalanceGate(self, s, lock)
                             for s, lock in enumerate(self._real)]
        return self

    def __exit__(self, *exc: object) -> None:
        self.store._locks = self._real


def _one_dim_setup():
    keys = np.arange(0.0, 1000.0)
    values = [f"v{int(k)}" for k in keys]
    store = ShardedStore(_ONE_DIM, num_shards=_NUM_SHARDS).build(keys, values)
    oracle = _ONE_DIM().build(keys, values)
    # Quantile bounds are (250, 500, 750); these squeeze shards 0-2 into
    # [0, 300], so key 600 moves from shard 2 to shard 3.
    new_bounds = np.array([100.0, 200.0, 300.0])
    return store, oracle, new_bounds


def _multi_dim_setup():
    pts = np.random.default_rng(11).uniform(0.0, 100.0, (400, 2))
    values = [f"p{i}" for i in range(len(pts))]
    store = ShardedStore(_MULTI_DIM, num_shards=_NUM_SHARDS).build(pts, values)
    oracle = _MULTI_DIM().build(pts, values)
    twin = ShardedStore(_MULTI_DIM, num_shards=_NUM_SHARDS).build(pts, values)
    twin.rebalance(sample=np.random.default_rng(12).uniform(0.0, 20.0, (256, 2)))
    # Points leaving shard 0: a kNN around one has its neighbours in
    # shard 0 before the rebalance and in later shards after it.
    moved = [i for i in range(len(pts))
             if store.route_point(pts[i]) == 0 != twin.route_point(pts[i])]
    assert moved, "the rebalance must move some points off shard 0"
    return store, oracle, twin, pts[moved[len(moved) // 2]]


def _one_dim_contents(store: ShardedStore) -> list:
    items: list = []
    for s, shard in enumerate(store.shards):
        owned = list(shard.range_query(-np.inf, np.inf))
        assert all(store.route_key(k) == s for k, _ in owned), s
        items.extend(owned)
    return items


def _multi_dim_contents(store: ShardedStore) -> list:
    items: list = []
    for s, shard in enumerate(store.shards):
        owned = list(shard.range_query((-1e3, -1e3), (1e3, 1e3)))
        assert all(store.route_point(p) == s for p, _ in owned), s
        items.extend(owned)
    return sorted(items)


# name -> (call on store, same call on the oracle); 600.0 is a stored key.
_ONE_DIM_CASES = {
    "lookup": (lambda st: st.lookup(600.0), lambda ix: ix.lookup(600.0)),
    "contains": (lambda st: st.contains(600.0), lambda ix: ix.contains(600.0)),
    "insert": (lambda st: st.insert(600.5, "new"),
               lambda ix: ix.insert(600.5, "new")),
    "delete": (lambda st: st.delete(600.0), lambda ix: ix.delete(600.0)),
    "range_query_1d": (lambda st: st.range_query_1d(590.0, 620.0),
                       lambda ix: ix.range_query(590.0, 620.0)),
}

# name -> (call on store, same call on the oracle, lock takes before the
# rebalance), given the moving point.
_MULTI_DIM_CASES = {
    "point_query": (lambda st, p: st.point_query(p),
                    lambda ix, p: ix.point_query(p), 0),
    "insert": (lambda st, p: st.insert(p + 0.01, "new"),
               lambda ix, p: ix.insert(p + 0.01, "new"), 0),
    "delete": (lambda st, p: st.delete(p), lambda ix, p: ix.delete(p), 0),
    "range_query": (lambda st, p: sorted(st.range_query(p - 4.0, p + 4.0)),
                    lambda ix, p: sorted(ix.range_query(p - 4.0, p + 4.0)), 0),
    "knn_query": (lambda st, p: st.knn_query(p, 5),
                  lambda ix, p: ix.knn_query(p, 5), 1),
}


@pytest.mark.parametrize("name", sorted(_ONE_DIM_CASES))
def test_one_dim_path_survives_a_rebalance_between_route_and_lock(name):
    store, oracle, new_bounds = _one_dim_setup()
    on_store, on_oracle = _ONE_DIM_CASES[name]
    stale = store.route_key(600.0)
    with _Race(store, new_bounds) as race:
        got = on_store(store)
    assert store.bounds_version == 1
    assert race.locked[0] == stale != store.route_key(600.0)
    assert race.locked[-1] == store.route_key(600.0), race.locked
    assert got == on_oracle(oracle)
    assert _one_dim_contents(store) == list(oracle.range_query(-np.inf, np.inf))


@pytest.mark.parametrize("name", sorted(_MULTI_DIM_CASES))
def test_multi_dim_path_survives_a_rebalance_between_route_and_lock(name):
    store, oracle, twin, point = _multi_dim_setup()
    on_store, on_oracle, at = _MULTI_DIM_CASES[name]
    with _Race(store, twin.bounds, at) as race:
        got = on_store(store, point)
    assert store.bounds_version == 1
    assert race.locked[0] == 0, race.locked
    assert len(race.locked) >= at + 2, race.locked
    assert got == on_oracle(oracle, point)
    assert _multi_dim_contents(store) == sorted(
        oracle.range_query((-1e3, -1e3), (1e3, 1e3)))
