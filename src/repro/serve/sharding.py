"""Sharded index store: range / space-filling-curve-prefix partitioning.

``ShardedStore`` partitions one logical key or point set across ``N``
independent index instances built by a user-supplied factory:

* **1-d stores** split the sorted key range at quantile boundaries, so a
  point lookup routes to exactly one shard via one ``searchsorted`` and
  a range query fans out to the contiguous run of shards overlapping
  ``[low, high]``.
* **multi-d stores** split the *Morton-code* order of the points at
  quantile boundaries (an SFC-prefix partition).  Point queries route by
  encoding the query point; range queries fan out only to shards whose
  code interval intersects ``[zencode(low), zencode(high)]`` — the
  classic UB-tree Z-interval bound (every point inside an axis-aligned
  box has a Morton code between the codes of the box corners).

Default values replicate the whole-index contract *globally*: a 1-d key
gets its rank in the global sorted order and a multi-d point gets its
row position in the build array, so sharded answers are exactly what one
unsharded index would return.

Thread safety: one ``RLock`` per shard.  Mutating calls (``build`` /
``insert`` / ``delete``) and every query that touches shard state
acquire the owning shard's lock; fan-out queries acquire the involved
shard locks one at a time (never nested), so workers draining different
shards cannot deadlock.  Writes bump the shard's generation counter
under the same lock, which is what the result cache keys invalidation
on.

Re-partitioning (the ``repro.tune`` actuator surface): ``rebalance``
swaps the shard boundaries while holding *every* shard lock in
increasing rank order, bumping *all* generations atomically, so no
cached result and no in-flight routed request can straddle two
partitions.  Because routing reads the bounds without a lock, every
query path re-validates its routing decision after taking the shard
lock — either by re-routing the key or by checking that
``bounds_version`` has not moved — and restarts when a rebalance won
the race.
"""

from __future__ import annotations

import bisect
import json
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.artifact import (
    ArtifactError,
    environment_snapshot,
    load_index_artifact,
    write_artifact,
)
from repro.core.interfaces import IndexStats, MultiDimIndex, OneDimIndex, point_distances
from repro.core.lockorder import make_rlock
from repro.core.state import IndexState
from repro.curves.capacity import require_code_budget
from repro.curves.zorder import zencode_array
from repro.serve.requests import Op, Request

__all__ = ["ShardedStore", "STORE_SNAPSHOT_FORMAT", "STORE_SNAPSHOT_VERSION"]

#: Discriminator + version of the store-level ``store.json`` snapshot
#: metadata (per-shard data lives in ordinary index artifacts).
STORE_SNAPSHOT_FORMAT = "repro-store-snapshot"
STORE_SNAPSHOT_VERSION = 1

_STORE_META = "store.json"

#: Per-op-code routing tables: which ops carry a key (1-d) or a point
#: (multi-d) that one vectorized ``searchsorted`` routes.  Indexed with a
#: window's op-code column, so classifying a window never hashes an enum
#: member per request.


def _code_table(ops: Sequence[Op]) -> np.ndarray:
    table = np.zeros(len(Op), dtype=bool)
    table[[op.code for op in ops]] = True
    return table


_KEY_ROUTED = _code_table([Op.LOOKUP, Op.CONTAINS, Op.INSERT, Op.DELETE])
_POINT_ROUTED = _code_table([Op.POINT_QUERY, Op.INSERT, Op.DELETE])

#: Coalescable op -> the shard index's batch kernel.
_KERNELS = {
    Op.LOOKUP: "lookup_batch",
    Op.CONTAINS: "contains_batch",
    Op.POINT_QUERY: "point_query_batch",
}


def _as_objects(values: np.ndarray) -> np.ndarray:
    """A kernel's answers as an object ndarray (``bool_`` -> ``bool``)."""
    return values if values.dtype == object else values.astype(object)


class ShardedStore:
    """``N`` index instances behind one uniform routed query surface.

    Args:
        factory: zero-argument constructor returning a fresh
            :class:`OneDimIndex` or :class:`MultiDimIndex`; the store
            infers which family it serves from the first instance.
        num_shards: number of partitions (>= 1).
        bits: per-dimension Morton quantisation bits for multi-d
            routing; ``None`` picks the finest lattice inside the 62-bit
            code budget (capped at 16 bits/dim).
    """

    def __init__(self, factory: Callable[[], object], num_shards: int = 4,
                 bits: int | None = None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self._factory = factory
        self._bits = bits
        self.shards: list[object] = []
        self.generations = [0] * num_shards
        self._locks = [make_rlock("ShardedStore._locks", rank=s)
                       for s in range(num_shards)]
        self._bounds = np.empty(0)          # shard split keys / codes
        self._bound_list: list = []         # _bounds as Python scalars (scalar routes)
        self._bounds_version = 0            # bumped by every rebalance
        self.multi_dim = False
        self.dims = 0
        self._lo = np.empty(0)
        self._hi = np.empty(0)
        self._built = False
        # Artifact provenance per shard: set by save_snapshot/from_snapshot
        # so the process backend can pack segments straight from the files
        # while the shard is still byte-identical to them (generation match).
        self._artifact_dirs: list[Path | None] = [None] * num_shards
        self._artifact_gens: list[int] = [-1] * num_shards

    # -- construction ------------------------------------------------------
    def build(self, data: np.ndarray, values: Sequence[object] | None = None) -> "ShardedStore":
        """Partition ``data`` and build one index per shard.

        Each per-shard ``build`` happens under that shard's lock; the
        partition masks preserve the original input order inside every
        shard, so stable per-shard sorting reproduces the duplicate-key
        ordering of a single unsharded build.
        """
        probe = self._factory()
        if isinstance(probe, MultiDimIndex):
            self.multi_dim = True
        elif not isinstance(probe, OneDimIndex):
            raise TypeError(
                f"factory must produce a OneDimIndex or MultiDimIndex, "
                f"got {type(probe).__name__}"
            )
        if self.multi_dim:
            pts = np.asarray(data, dtype=np.float64)
            if pts.ndim != 2:
                raise ValueError("multi-d data must have shape (n, d)")
            n, self.dims = pts.shape
            if n and n < self.num_shards:
                raise ValueError("need at least one point per shard")
            self._lo = pts.min(axis=0) if n else np.zeros(self.dims)
            self._hi = pts.max(axis=0) if n else np.ones(self.dims)
            if self._bits is None:
                self._bits = min(16, 62 // max(self.dims, 1))
            require_code_budget(self.dims, self._bits)
            route_keys = self._encode(pts) if n else np.empty(0, dtype=np.int64)
            if values is None:
                values = list(range(n))
        else:
            arr = np.asarray(data, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError("1-d data must be a flat key array")
            n = arr.size
            if n and n < self.num_shards:
                raise ValueError("need at least one key per shard")
            route_keys = arr
            if values is None:
                # Global ranks in sorted order (the OneDimIndex default),
                # aligned back to input positions.
                order = np.argsort(arr, kind="mergesort")
                ranks = np.empty(n, dtype=np.int64)
                ranks[order] = np.arange(n)
                values = [int(r) for r in ranks]
        if len(values) != n:
            raise ValueError("values must align with data")

        self._bounds = self._split_bounds(route_keys)
        self._bound_list = self._bounds.tolist()
        sids = (
            np.searchsorted(self._bounds, route_keys, side="right")
            if n else np.empty(0, dtype=np.int64)
        )
        self.shards = []
        self._artifact_dirs = [None] * self.num_shards
        self._artifact_gens = [-1] * self.num_shards
        for s in range(self.num_shards):
            rows = np.flatnonzero(sids == s)
            part = data[rows] if n else (
                np.empty((0, self.dims)) if self.multi_dim else np.empty(0)
            )
            part_values = [values[int(i)] for i in rows]
            shard = self._factory()
            with self._locks[s]:
                shard.build(part, part_values)  # type: ignore[attr-defined]
            self.shards.append(shard)
        self._built = True
        return self

    def _split_bounds(self, route_keys: np.ndarray) -> np.ndarray:
        """Quantile split values: shard ``s`` owns keys in (b[s-1], b[s]]."""
        if self.num_shards == 1 or route_keys.size == 0:
            return route_keys[:0]
        ordered = np.sort(route_keys, kind="mergesort")
        cuts = [
            ordered[(s * ordered.size) // self.num_shards]
            for s in range(1, self.num_shards)
        ]
        return np.asarray(cuts)

    def _encode(self, pts: np.ndarray) -> np.ndarray:
        """Morton codes of ``pts`` on the build-time lattice."""
        assert self._bits is not None
        return zencode_array(pts, self._lo, self._hi, self._bits)

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("ShardedStore: call build() before serving")

    # -- routing -----------------------------------------------------------
    # The scalar routes bisect ``_bound_list``, the Python-scalar copy of
    # ``_bounds``: ``ndarray.searchsorted`` releases the GIL on every
    # call, even over three bounds, so a routed scalar request would hand
    # the CPU to whichever worker thread it just woke.  ``bisect_right``
    # is ``searchsorted(side="right")`` over a sorted list, NaN included
    # (it compares below nothing, so it lands past every bound), as long
    # as the bounds themselves hold no NaN (``rebalance`` refuses one)
    # and the key is the float64 a column would hold (an int past 2**53
    # rounds first).
    def route_key(self, key: float) -> int:
        """Shard id owning a 1-d key."""
        return bisect.bisect_right(self._bound_list, float(key))

    def route_point(self, point: Sequence[float]) -> int:
        """Shard id owning a multi-d point (by Morton code)."""
        pts = np.asarray(point, dtype=np.float64).reshape(1, -1)
        return bisect.bisect_right(self._bound_list, int(self._encode(pts)[0]))

    def route(self, request: Request) -> tuple[int, ...]:
        """All shard ids a request touches (first one hosts its queue slot)."""
        self._require_built()
        op = request.op
        if op in (Op.LOOKUP, Op.CONTAINS):
            return (self.route_key(float(request.key)),)  # type: ignore[arg-type]
        if op is Op.POINT_QUERY:
            return (self.route_point(request.point),)  # type: ignore[arg-type]
        if op is Op.RANGE_1D:
            lo_s = self.route_key(float(request.low))  # type: ignore[arg-type]
            hi_s = self.route_key(float(request.high))  # type: ignore[arg-type]
            return tuple(range(lo_s, hi_s + 1))
        if op is Op.RANGE_QUERY:
            return self._range_shards(request.low, request.high)
        if op is Op.KNN:
            return tuple(range(self.num_shards))
        if op in (Op.INSERT, Op.DELETE):
            if self.multi_dim:
                return (self.route_point(request.point),)  # type: ignore[arg-type]
            return (self.route_key(float(request.key)),)  # type: ignore[arg-type]
        raise ValueError(f"unroutable op {op!r}")

    def route_columns(self, requests: Sequence[Request],
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One window as columns: ``(op codes, home shards, keys or points)``.

        The window is walked once per column.  ``column`` is float64 and
        row-aligned with ``requests`` — shape ``(n,)`` of keys in 1-d,
        ``(n, dims)`` of points in multi-d, NaN where the op carries
        neither (ranges, kNN).  Key- and point-shaped ops — the
        overwhelming share of serving traffic — get their home shard
        from one ``searchsorted`` over that column (plus one
        ``zencode_array`` in multi-d); fan-out ops fall back to
        :meth:`route` individually and are homed on their first shard.
        """
        self._require_built()
        n = len(requests)
        codes = np.array([r.op.code for r in requests], dtype=np.intp)
        if self.multi_dim:
            routed = _POINT_ROUTED[codes]
            rows = np.flatnonzero(routed)
            column = np.full((n, self.dims), np.nan)
            homes = np.zeros(n, dtype=np.intp)
            if rows.size:
                column[rows] = np.array(
                    [requests[i].point for i in rows.tolist()], dtype=np.float64)
                homes[rows] = self._route_column(column[rows])
        else:
            routed = _KEY_ROUTED[codes]
            column = np.array([r.key for r in requests], dtype=np.float64)
            homes = self._route_column(column)
            for i in np.flatnonzero(routed & np.isnan(column)).tolist():
                float(requests[i].key)  # a keyed op without a key: TypeError  # type: ignore[arg-type]
        for i in np.flatnonzero(~routed).tolist():
            shards = self.route(requests[i])
            homes[i] = shards[0] if shards else 0
        return codes, homes, column

    def route_home_batch(self, requests: Sequence[Request]) -> list[int]:
        """Home (queue-owning) shard for each request, routed in bulk
        (the home-shard column of :meth:`route_columns` as a list)."""
        return self.route_columns(requests)[1].tolist()

    def _range_shards(self, low: object, high: object) -> tuple[int, ...]:
        """Shards whose code interval intersects the box's Z-interval."""
        lo = np.asarray(low, dtype=np.float64).reshape(1, -1)
        hi = np.asarray(high, dtype=np.float64).reshape(1, -1)
        if np.any(hi < lo):
            return ()
        bound_list = self._bound_list
        lo_s = bisect.bisect_right(bound_list, int(self._encode(lo)[0]))
        hi_s = bisect.bisect_right(bound_list, int(self._encode(hi)[0]))
        return tuple(range(lo_s, hi_s + 1))

    # -- scalar queries ----------------------------------------------------
    def lookup(self, key: float) -> object | None:
        """Routed lookup; re-routes under the shard lock when a concurrent
        rebalance moved the key between routing and locking."""
        self._require_built()
        while True:
            s = self.route_key(key)
            with self._locks[s]:
                if self.route_key(key) == s:
                    return self.shards[s].lookup(key)  # type: ignore[attr-defined]

    def contains(self, key: float) -> bool:
        """Routed membership test; re-routes under the shard lock when a
        concurrent rebalance moved the key."""
        self._require_built()
        while True:
            s = self.route_key(key)
            with self._locks[s]:
                if self.route_key(key) == s:
                    return bool(self.shards[s].contains(key))  # type: ignore[attr-defined]

    def point_query(self, point: Sequence[float]) -> object | None:
        """Routed exact-point query; re-routes under the shard lock when a
        concurrent rebalance moved the point's Morton code."""
        self._require_built()
        while True:
            s = self.route_point(point)
            with self._locks[s]:
                if self.route_point(point) == s:
                    return self.shards[s].point_query(point)  # type: ignore[attr-defined]

    def range_query_1d(self, low: float, high: float) -> list[tuple[float, object]]:
        """Concatenated shard scans: globally key-sorted, like one index.

        The fan-out restarts from routing if a rebalance changes the
        bounds mid-scan (validated under each shard lock), so one call
        never mixes results from two different partitions.
        """
        self._require_built()
        while True:
            version = self._bounds_version
            lo_s = self.route_key(low)
            hi_s = self.route_key(high)
            out: list[tuple[float, object]] = []
            stale = False
            for s in range(lo_s, hi_s + 1):
                with self._locks[s]:
                    if self._bounds_version != version:
                        stale = True
                        break
                    out.extend(self.shards[s].range_query(low, high))  # type: ignore[attr-defined]
            if not stale:
                return out

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list:
        """Multi-d box query over the Z-interval-pruned shard subset.

        Returns the same result *multiset* as one unsharded index (the
        repo's range contract — each index class already has its own
        internal result order); here results come back in shard order,
        each shard's slice in that index's native order.  Restarts if a
        rebalance changes the bounds mid-fan-out (checked under each
        shard lock).
        """
        self._require_built()
        while True:
            version = self._bounds_version
            out: list = []
            stale = False
            for s in self._range_shards(low, high):
                with self._locks[s]:
                    if self._bounds_version != version:
                        stale = True
                        break
                    out.extend(self.shards[s].range_query(low, high))  # type: ignore[attr-defined]
            if not stale:
                return out

    def knn_query(self, point: Sequence[float], k: int) -> list:
        """Merge per-shard kNN candidate sets into the global top-k.

        Each shard returns *its* ``k`` nearest, so the union provably
        contains the global ``k`` nearest; re-sorting with the same
        distance formula (:func:`point_distances`) and ``(distance, point,
        value)`` tie-break the scalar path uses reproduces the unsharded
        answer.  Restarts if a rebalance lands mid-fan-out (checked under
        each shard lock), so a point that moved between shards is never
        seen zero or two times.
        """
        self._require_built()
        if k <= 0:
            return []
        q = np.asarray(point, dtype=np.float64)
        while True:
            version = self._bounds_version
            candidates: list = []
            stale = False
            for s in range(self.num_shards):
                with self._locks[s]:
                    if self._bounds_version != version:
                        stale = True
                        break
                    candidates.extend(self.shards[s].knn_query(point, k))  # type: ignore[attr-defined]
            if not stale:
                break
        points = np.array([p for p, _ in candidates], dtype=np.float64)
        dists = point_distances(points.reshape(len(candidates), q.size), q)
        ranked = sorted((d, p, v) for d, (p, v) in zip(dists.tolist(), candidates))
        return [(p, v) for _, p, v in ranked[:k]]

    # -- batched queries (the coalescer fast path) -------------------------
    def lookup_batch(self, keys: Sequence[float]) -> np.ndarray:
        """Routed scatter/gather over the per-shard ``lookup_batch`` kernels.

        Restarts from routing if a rebalance changes the shard bounds
        mid-flight (the version check runs under each shard lock, where
        the bounds cannot move).
        """
        self._require_built()
        arr = np.asarray(keys, dtype=np.float64)
        out = np.empty(arr.size, dtype=object)
        while True:
            version = self._bounds_version
            sids = np.searchsorted(self._bounds, arr, side="right")
            stale = False
            for s in np.unique(sids):
                rows = np.flatnonzero(sids == s)
                with self._locks[s]:
                    if self._bounds_version != version:
                        stale = True
                        break
                    out[rows] = self.shards[s].lookup_batch(arr[rows])  # type: ignore[attr-defined]
            if not stale:
                return out

    def contains_batch(self, keys: Sequence[float]) -> np.ndarray:
        """Routed batch membership; restarts on a mid-flight rebalance
        (bounds-version check under each shard lock)."""
        self._require_built()
        arr = np.asarray(keys, dtype=np.float64)
        out = np.empty(arr.size, dtype=bool)
        while True:
            version = self._bounds_version
            sids = np.searchsorted(self._bounds, arr, side="right")
            stale = False
            for s in np.unique(sids):
                rows = np.flatnonzero(sids == s)
                with self._locks[s]:
                    if self._bounds_version != version:
                        stale = True
                        break
                    out[rows] = self.shards[s].contains_batch(arr[rows])  # type: ignore[attr-defined]
            if not stale:
                return out

    def point_query_batch(self, points: np.ndarray) -> np.ndarray:
        """Routed batch point query; restarts on a mid-flight rebalance
        (bounds-version check under each shard lock)."""
        self._require_built()
        pts = np.asarray(points, dtype=np.float64)
        codes = self._encode(pts)
        out = np.empty(pts.shape[0], dtype=object)
        while True:
            version = self._bounds_version
            sids = np.searchsorted(self._bounds, codes, side="right")
            stale = False
            for s in np.unique(sids):
                rows = np.flatnonzero(sids == s)
                with self._locks[s]:
                    if self._bounds_version != version:
                        stale = True
                        break
                    out[rows] = self.shards[s].point_query_batch(pts[rows])  # type: ignore[attr-defined]
            if not stale:
                return out

    # -- mutation ----------------------------------------------------------
    def _require_mutable(self, method: str) -> None:
        """Raise a typed error instead of an AttributeError deep in a worker.

        The unlocked shard read is deliberately racy-safe: mutability is
        a property of the factory's *class*, identical across shards and
        across the store's lifetime once built.
        """
        if not hasattr(self.shards[0], method):
            raise TypeError(
                f"{type(self.shards[0]).__name__} is immutable; "
                f"{method} needs a mutable index factory"
            )

    def insert(self, key_or_point: object, value: object = None) -> None:
        """Routed insert; bumps the shard generation under the shard lock.

        Re-routes under the lock when a concurrent rebalance moved the
        key's owning shard, so a write never lands on a shard that no
        longer owns it.
        """
        self._require_built()
        self._require_mutable("insert")
        if self.multi_dim:
            while True:
                s = self.route_point(key_or_point)  # type: ignore[arg-type]
                with self._locks[s]:
                    if self.route_point(key_or_point) == s:  # type: ignore[arg-type]
                        self.shards[s].insert(key_or_point, value)  # type: ignore[attr-defined]
                        self.generations[s] += 1
                        return
        else:
            key = float(key_or_point)  # type: ignore[arg-type]
            while True:
                s = self.route_key(key)
                with self._locks[s]:
                    if self.route_key(key) == s:
                        self.shards[s].insert(key, value)  # type: ignore[attr-defined]
                        self.generations[s] += 1
                        return

    def delete(self, key_or_point: object) -> bool:
        """Routed delete; bumps the shard generation under the shard lock.

        Re-routes under the lock when a concurrent rebalance moved the
        key's owning shard.
        """
        self._require_built()
        self._require_mutable("delete")
        if self.multi_dim:
            while True:
                s = self.route_point(key_or_point)  # type: ignore[arg-type]
                with self._locks[s]:
                    if self.route_point(key_or_point) == s:  # type: ignore[arg-type]
                        removed = bool(self.shards[s].delete(key_or_point))  # type: ignore[attr-defined]
                        self.generations[s] += 1
                        return removed
        key = float(key_or_point)  # type: ignore[arg-type]
        while True:
            s = self.route_key(key)
            with self._locks[s]:
                if self.route_key(key) == s:
                    removed = bool(self.shards[s].delete(key))  # type: ignore[attr-defined]
                    self.generations[s] += 1
                    return removed

    # -- request execution (used by the coalescer workers) -----------------
    def execute(self, request: Request) -> object:
        """Answer one request through the scalar index paths."""
        op = request.op
        if op is Op.LOOKUP:
            return self.lookup(float(request.key))  # type: ignore[arg-type]
        if op is Op.CONTAINS:
            return self.contains(float(request.key))  # type: ignore[arg-type]
        if op is Op.RANGE_1D:
            return self.range_query_1d(float(request.low), float(request.high))  # type: ignore[arg-type]
        if op is Op.POINT_QUERY:
            return self.point_query(request.point)  # type: ignore[arg-type]
        if op is Op.RANGE_QUERY:
            return self.range_query(request.low, request.high)  # type: ignore[arg-type]
        if op is Op.KNN:
            return self.knn_query(request.point, request.k)  # type: ignore[arg-type]
        if op is Op.INSERT:
            self.insert(
                request.point if self.multi_dim else request.key, request.value
            )
            return None
        if op is Op.DELETE:
            return self.delete(request.point if self.multi_dim else request.key)
        raise ValueError(f"unknown op {op!r}")

    def execute_writes(self, shard: int, requests: Sequence[Request]) -> list[object]:
        """Apply a stretch of writes queued on ``shard``, in order, under
        one lock take and one generation bump.

        Returns one entry per request: what the scalar path returns
        (``None`` for an insert, the removed flag for a delete), or the
        exception that row raised.  A failing row fails alone: it
        neither stops the stretch nor escapes to the caller.  Routing is
        re-validated under the lock with one :meth:`_route_column`; rows
        a rebalance moved off ``shard`` run afterwards through the
        routed scalar path, in order (a key's rows always move
        together, so per-key order holds).
        """
        self._require_built()
        column = np.asarray(
            [r.point if self.multi_dim else r.key for r in requests], dtype=np.float64)
        results: list[object] = [None] * len(requests)
        with self._locks[shard]:
            mine = self._route_column(column) == shard
            index = self.shards[shard]
            rows = np.flatnonzero(mine).tolist()
            for i in rows:
                results[i] = self._apply_write(index, requests[i])
            if rows:
                self.generations[shard] += 1
        for i in np.flatnonzero(~mine).tolist():
            try:
                results[i] = self.execute(requests[i])
            except Exception as exc:
                results[i] = exc
        return results

    def _apply_write(self, index: object, request: Request) -> object:
        """One write on a locked shard index; an exception is returned."""
        try:
            self._require_mutable(request.op.value)
            target = request.point if self.multi_dim else float(request.key)  # type: ignore[arg-type]
            if request.op is Op.INSERT:
                index.insert(target, request.value)  # type: ignore[attr-defined]
                return None
            return bool(index.delete(target))  # type: ignore[attr-defined]
        except Exception as exc:
            return exc

    @staticmethod
    def request_column(op: Op, requests: Sequence[Request]) -> np.ndarray:
        """Float64 key (or point) column of one coalescable same-op run."""
        if op is Op.POINT_QUERY:
            return np.asarray([r.point for r in requests], dtype=np.float64)
        return np.asarray([r.key for r in requests], dtype=np.float64)

    def _route_column(self, column: np.ndarray) -> np.ndarray:
        """Current home shard per row of a key (1-d) or point (multi-d) column.

        Deliberately lock-free: callers either re-check under the shard
        lock (:meth:`execute_columns`) or pair the result with a
        bounds-version check (:meth:`stray_rows` users).
        """
        routed = self._encode(column) if self.multi_dim else column
        return np.searchsorted(self._bounds, routed, side="right")

    def stray_rows(self, shard: int, column: np.ndarray) -> np.ndarray:
        """Rows of a routed run that a rebalance has moved off ``shard``.

        A lock-free routing snapshot: callers must pair it with a
        :attr:`bounds_version` check (see
        :meth:`repro.serve.mp.ProcessShardExecutor.execute_columns`) to
        know the answer was not computed mid-rebalance.
        """
        self._require_built()
        return np.flatnonzero(self._route_column(column) != shard)

    def read_scalar(self, op: Op, row: object) -> object:
        """One row of a coalescable run through the routed scalar path."""
        if op is Op.LOOKUP:
            return self.lookup(float(row))  # type: ignore[arg-type]
        if op is Op.CONTAINS:
            return self.contains(float(row))  # type: ignore[arg-type]
        if op is Op.POINT_QUERY:
            return self.point_query(tuple(row.tolist()))  # type: ignore[attr-defined]
        raise ValueError(f"op {op!r} is not coalescable")

    def execute_columns(self, shard: int, op: Op, column: np.ndarray) -> np.ndarray:
        """Answer a same-shard run of one coalescable op in one kernel call.

        ``column`` holds the run's keys (or points) in queue order; the
        result is an object ndarray aligned with it (``contains``
        answers as Python bools).  The caller (a coalescer worker)
        routed every row to ``shard`` at enqueue time; the routing is
        re-validated under the shard lock, because a rebalance may have
        moved keys off this shard while the run sat in the queue.
        Still-owned rows are answered by one vectorized kernel call
        (where coalescing earns its throughput); moved rows fall back to
        :meth:`read_scalar`, which re-routes them safely after the lock
        is released.
        """
        self._require_built()
        kernel = _KERNELS.get(op)
        if kernel is None:
            raise ValueError(f"op {op!r} is not coalescable")
        with self._locks[shard]:
            mine = self._route_column(column) == shard
            batch = getattr(self.shards[shard], kernel)
            if mine.all():
                return _as_objects(batch(column))
            out = np.empty(len(column), dtype=object)
            rows = np.flatnonzero(mine)
            if rows.size:
                out[rows] = _as_objects(batch(column[rows]))
            moved = np.flatnonzero(~mine)
        for i in moved.tolist():
            out[i] = self.read_scalar(op, column[i])
        return out

    def execute_batch(self, shard: int, op: Op, requests: Sequence[Request]) -> list[object]:
        """:meth:`execute_columns` for a run given as ``Request`` objects."""
        return self.execute_columns(
            shard, op, self.request_column(op, requests)).tolist()

    # -- re-partitioning (the repro.tune actuator surface) -----------------
    @property
    def bounds(self) -> np.ndarray:
        """Copy of the current shard split keys/codes (for inspection)."""
        return self._bounds.copy()

    @property
    def bounds_version(self) -> int:
        """Monotonic partition version; bumped by every :meth:`rebalance`."""
        return self._bounds_version

    def _shard_items_locked(self, shard: int) -> list:
        """One shard's full (key/point, value) item list.

        The caller must hold the shard's lock.  1-d shards enumerate via
        an unbounded range scan; multi-d shards scan the build-time
        bounding box, which is the whole routable domain (the Morton
        lattice clamps points to it).
        """
        index = self.shards[shard]
        if self.multi_dim:
            return list(index.range_query(self._lo, self._hi))  # type: ignore[attr-defined]
        return list(index.range_query(-np.inf, np.inf))  # type: ignore[attr-defined]

    def rebalance(self, sample: np.ndarray | None = None,
                  bounds: Sequence[float] | None = None) -> int:
        """Re-partition every shard atomically; returns the new bounds version.

        New split boundaries come from, in priority order: explicit
        ``bounds`` (``num_shards - 1`` sorted split keys/codes), the
        quantiles of ``sample`` (observed keys in 1-d, observed points
        in multi-d — the hot-shard policy's input), or the quantiles of
        the store's own current items.

        The whole operation runs while holding **every** shard lock in
        increasing rank order (the runtime witness's sanctioned
        same-group protocol), so no query or write can interleave with a
        half-moved partition: items are extracted from all shards,
        re-split at the new boundaries, rebuilt through the factory, and
        swapped in with *all* shard generations bumped in the same
        critical section.  Atomic all-shard generation bumps are what
        keep the result cache sound — every cached entry keyed on a
        pre-rebalance generation tuple becomes unreachable at once,
        so no stale read can survive a boundary move.  The bounds swap
        happens before the version bump; readers check the version
        *first*, so a version match under a shard lock proves their
        routing snapshot is current.  Artifact provenance is cleared
        (the shards no longer match any saved snapshot), which also
        makes the process backend republish every worker snapshot.
        """
        self._require_built()
        with ExitStack() as stack:
            for s in range(self.num_shards):
                stack.enter_context(self._locks[s])
            items: list = []
            for s in range(self.num_shards):
                items.extend(self._shard_items_locked(s))
            if self.multi_dim:
                data = (np.asarray([p for p, _v in items], dtype=np.float64)
                        .reshape(len(items), self.dims))
                route_keys = (self._encode(data) if items
                              else np.empty(0, dtype=np.int64))
            else:
                data = np.asarray([k for k, _v in items], dtype=np.float64)
                route_keys = data
            values = [v for _k, v in items]
            sample_arr = (np.asarray(sample, dtype=np.float64)
                          if sample is not None else np.empty(0))
            # A NaN probe says nothing about where keys sit, and a NaN
            # bound would route differently under the scalar bisect and
            # the vectorized searchsorted: drop such samples, refuse
            # such bounds.
            if self.multi_dim:
                sample_arr = sample_arr.reshape(-1, self.dims)
                sample_arr = sample_arr[~np.isnan(sample_arr).any(axis=1)]
            else:
                sample_arr = sample_arr.reshape(-1)
                sample_arr = sample_arr[~np.isnan(sample_arr)]
            if bounds is not None:
                new_bounds = np.asarray(bounds, dtype=route_keys.dtype)
                if new_bounds.size != self.num_shards - 1:
                    raise ValueError(
                        f"rebalance needs {self.num_shards - 1} split "
                        f"bounds, got {new_bounds.size}"
                    )
            elif sample_arr.size:
                new_bounds = self._split_bounds(
                    self._encode(sample_arr) if self.multi_dim else sample_arr)
            else:
                new_bounds = self._split_bounds(route_keys)
            if np.isnan(new_bounds).any() or np.any(new_bounds[1:] < new_bounds[:-1]):
                raise ValueError("rebalance bounds must be non-decreasing and not NaN")
            sids = (np.searchsorted(new_bounds, route_keys, side="right")
                    if route_keys.size else np.empty(0, dtype=np.int64))
            for s in range(self.num_shards):
                rows = np.flatnonzero(sids == s)
                part = data[rows] if route_keys.size else (
                    np.empty((0, self.dims)) if self.multi_dim else np.empty(0)
                )
                part_values = [values[int(i)] for i in rows]
                fresh = self._factory()
                fresh.build(part, part_values)  # type: ignore[attr-defined]
                with self._locks[s]:
                    self.shards[s] = fresh
                    self.generations[s] += 1
                    self._artifact_dirs[s] = None
                    self._artifact_gens[s] = -1
            self._bounds = new_bounds
            self._bound_list = new_bounds.tolist()
            self._bounds_version += 1
            return self._bounds_version

    def retune_shard(self, shard: int, workload: Sequence[tuple],
                     candidates: Sequence[int] | None = None) -> bool:
        """Re-tune one shard's internal layout from an observed workload.

        Calls the shard index's ``tune(workload)`` hook (e.g.
        :meth:`repro.multidim.flood.FloodIndex.tune`) under the shard
        lock and bumps the generation in the same critical section, so
        cached results and worker snapshots built on the old layout are
        invalidated together.  Returns ``False`` (untouched, no bump)
        when the index class has no ``tune`` hook.
        """
        self._require_built()
        with self._locks[shard]:
            tune = getattr(self.shards[shard], "tune", None)
            if tune is None or not callable(tune):
                return False
            if candidates is None:
                tune(list(workload))
            else:
                tune(list(workload), candidates=tuple(candidates))
            self.generations[shard] += 1
            self._artifact_dirs[shard] = None
            self._artifact_gens[shard] = -1
        return True

    def rebuild_shard(self, shard: int) -> None:
        """Rebuild one shard's index from its own items, in place.

        Collapses accumulated delta state (LSM levels, tombstones,
        appended buffers) back into the compact built form.  Indexes
        exposing an in-place ``compact()`` (e.g. dynamic PGM) take a
        fast path that merges their level arrays directly; others get a
        fresh factory build from their extracted items.  Either way the
        work runs under the shard lock with the generation bump in the
        same critical section, so no reader observes the half-merged
        shard and every cached result keyed on the old generation
        becomes unreachable.
        """
        self._require_built()
        with self._locks[shard]:
            compact = getattr(self.shards[shard], "compact", None)
            if compact is not None:
                compact()
                self.generations[shard] += 1
                self._artifact_dirs[shard] = None
                self._artifact_gens[shard] = -1
                return
            items = self._shard_items_locked(shard)
            if self.multi_dim:
                data = (np.asarray([p for p, _v in items], dtype=np.float64)
                        .reshape(len(items), self.dims))
            else:
                data = np.asarray([k for k, _v in items], dtype=np.float64)
            values = [v for _k, v in items]
            fresh = self._factory()
            fresh.build(data, values)  # type: ignore[attr-defined]
            self.shards[shard] = fresh
            self.generations[shard] += 1
            self._artifact_dirs[shard] = None
            self._artifact_gens[shard] = -1

    # -- snapshot export (the multi-process backend's feed) ----------------
    def export_shard(self, shard: int) -> tuple[object, int]:
        """Export one shard's built state plus its current generation.

        Runs under the shard's lock so the snapshot never observes a
        half-applied write, and the returned generation is exactly the
        one the snapshot reflects — the pair is what
        :class:`repro.serve.mp.ProcessShardExecutor` publishes to worker
        processes via :func:`repro.serve.shm.pack_state`.
        """
        self._require_built()
        with self._locks[shard]:
            state = self.shards[shard].export_state()  # type: ignore[attr-defined]
            return state, self.generations[shard]

    def snapshot_source(self, shard: int) -> tuple[Path | None, IndexState | None, int]:
        """Best snapshot feed for one shard: artifact files or live export.

        Under the shard lock: if the shard is still byte-identical to
        the artifact directory it was saved to / restored from (its
        generation has not moved since), return that directory so the
        executor can pack the worker segment **straight from the files**
        (:func:`repro.serve.shm.pack_artifact`) — no state export, no
        payload unpickle in the parent.  A shard that has seen writes
        since falls back to a live :meth:`export_shard`-style export.
        Returns ``(artifact_dir, state, generation)`` with exactly one
        of the first two non-None.
        """
        self._require_built()
        with self._locks[shard]:
            generation = self.generations[shard]
            source = self._artifact_dirs[shard]
            if source is not None and generation == self._artifact_gens[shard]:
                return source, None, generation
            state = self.shards[shard].export_state()  # type: ignore[attr-defined]
            return None, state, generation

    # -- snapshot persistence (cold-start restore) -------------------------
    def save_snapshot(self, directory: str | Path) -> Path:
        """Persist the whole store: shard artifacts + partitioner metadata.

        Each shard's state is exported under its lock (so no snapshot
        observes a half-applied write) and written as an ordinary index
        artifact directory (``shard_0000/ ...``); ``store.json`` records
        the partition bounds, Morton lattice, and the exact generation
        each shard artifact reflects, which is what lets
        :meth:`from_snapshot` resume cache-generation continuity.  A
        rebalance landing mid-snapshot (detected by the bounds version
        moving between the first export and the metadata write) restarts
        the export, so saved bounds always match the saved shards.
        """
        self._require_built()
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        while True:
            version = self._bounds_version
            bounds = self._bounds
            shard_dirs: list[str] = []
            generations: list[int] = []
            for s in range(self.num_shards):
                rel = f"shard_{s:04d}"
                with self._locks[s]:
                    state = self.shards[s].export_state()  # type: ignore[attr-defined]
                    generation = self.generations[s]
                write_artifact(state, root / rel)
                with self._locks[s]:
                    if self.generations[s] == generation:
                        self._artifact_dirs[s] = root / rel
                        self._artifact_gens[s] = generation
                shard_dirs.append(rel)
                generations.append(generation)
            if self._bounds_version == version:
                break
        meta = {
            "format": STORE_SNAPSHOT_FORMAT,
            "format_version": STORE_SNAPSHOT_VERSION,
            "num_shards": self.num_shards,
            "multi_dim": self.multi_dim,
            "dims": self.dims,
            "bits": self._bits,
            "bounds": bounds.tolist(),
            "lo": [float(x) for x in self._lo],
            "hi": [float(x) for x in self._hi],
            "generations": generations,
            "shards": shard_dirs,
            "environment": environment_snapshot(),
        }
        (root / _STORE_META).write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )
        return root

    @classmethod
    def from_snapshot(cls, directory: str | Path,
                      factory: Callable[[], object] | None = None,
                      mmap_mode: str | None = "r") -> "ShardedStore":
        """Restore a store from :meth:`save_snapshot` output, build-free.

        Every shard is reconstructed from its artifact files (read-only
        memmap views by default — pass ``mmap_mode=None`` for writable
        eager copies); partition bounds and generation counters resume
        exactly where they were saved.  No index ``build()`` runs.
        """
        root = Path(directory)
        meta_path = root / _STORE_META
        if not meta_path.is_file():
            raise ArtifactError(f"{root}: no {_STORE_META} (not a store snapshot)")
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"{meta_path}: unreadable metadata: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("format") != STORE_SNAPSHOT_FORMAT:
            raise ArtifactError(f"{meta_path}: not a {STORE_SNAPSHOT_FORMAT} file")
        version = meta.get("format_version")
        if not isinstance(version, int) or version > STORE_SNAPSHOT_VERSION:
            raise ArtifactError(
                f"{meta_path}: snapshot version {version!r} newer than "
                f"supported {STORE_SNAPSHOT_VERSION}"
            )
        num_shards = int(meta["num_shards"])
        if factory is None:
            def factory() -> object:
                raise RuntimeError(
                    "store was restored from a snapshot without a factory; "
                    "pass factory= to from_snapshot before calling build()"
                )
        store = cls(factory, num_shards=num_shards, bits=meta.get("bits"))
        store.multi_dim = bool(meta["multi_dim"])
        store.dims = int(meta["dims"])
        bounds_dtype = np.int64 if store.multi_dim else np.float64
        store._bounds = np.asarray(meta["bounds"], dtype=bounds_dtype)
        store._bound_list = store._bounds.tolist()
        store._lo = np.asarray(meta["lo"], dtype=np.float64)
        store._hi = np.asarray(meta["hi"], dtype=np.float64)
        generations = [int(g) for g in meta["generations"]]
        shard_dirs = [str(rel) for rel in meta["shards"]]
        if len(generations) != num_shards or len(shard_dirs) != num_shards:
            raise ArtifactError(f"{meta_path}: shard list does not match num_shards")
        store.shards = [
            load_index_artifact(root / rel, mmap_mode=mmap_mode)
            for rel in shard_dirs
        ]
        store.generations = generations
        store._artifact_dirs = [root / rel for rel in shard_dirs]
        store._artifact_gens = list(generations)
        store._built = True
        return store

    # -- reporting ---------------------------------------------------------
    def stats(self) -> IndexStats:
        """Fold of per-shard :class:`IndexStats`, each read under its shard lock.

        Per-shard counters are internally consistent (no torn multi-field
        reads); the fold across shards is still a moving snapshot.
        """
        out = IndexStats()
        for s in range(len(self.shards)):
            with self._locks[s]:
                out = out.merge(self.shards[s].stats)  # type: ignore[attr-defined]
        return out

    def shard_sizes(self) -> list[int]:
        """Number of entries held by each shard, each read under its lock."""
        sizes: list[int] = []
        for s in range(len(self.shards)):
            with self._locks[s]:
                sizes.append(len(self.shards[s]))  # type: ignore[arg-type]
        return sizes

    def __len__(self) -> int:
        return sum(self.shard_sizes())
