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

Thread safety: one ``RLock`` per shard.  Mutating calls (``insert`` /
``delete`` / the re-partition methods) and every query that touches
shard state acquire the owning shard's lock; fan-out queries acquire
the involved shard locks one at a time (never nested), so workers
draining different shards cannot deadlock.  Writes bump the shard's
generation counter under the same lock, which is what the result cache
keys invalidation on.

Re-partitioning (the ``repro.tune`` actuator surface): ``rebalance``
swaps the shard boundaries while holding *every* shard lock in
increasing rank order, bumping *all* generations atomically, so no
cached result and no in-flight routed request can straddle two
partitions.  Because routing reads the bounds without a lock, every
query path re-validates its routing decision after taking the shard
lock, and restarts when a rebalance won the race.  That protocol is
written twice: :meth:`ShardedStore._owner_call` (one key or point, one
shard: re-route under the lock) and :meth:`ShardedStore._fan_out`
(several shards in turn: re-check ``bounds_version`` under each lock).
A run the coalescer queued carries the ``bounds_version`` it was routed
under, and the executors re-route it only when that version has moved
(:meth:`ShardedStore.reroute`), so a point is routed once when no
rebalance lands.
"""

from __future__ import annotations

import bisect
import json
from contextlib import ExitStack
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.artifact import (
    ArtifactError,
    environment_snapshot,
    load_index_artifact,
    read_header,
    write_artifact,
)
from repro.core.interfaces import IndexStats, MultiDimIndex, OneDimIndex, point_distances
from repro.core.lockorder import make_rlock
from repro.core.state import IndexState
from repro.curves.capacity import require_code_budget
from repro.curves.zorder import zencode_array
from repro.serve.requests import BATCH_KERNELS, WRITE_OPS, Op, Request

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

#: Op -> how :meth:`ShardedStore.execute` answers one request of it.
_EXECUTE: dict[Op, Callable[[Any, Any], object]] = {
    Op.LOOKUP: lambda store, r: store.lookup(float(r.key)),
    Op.CONTAINS: lambda store, r: store.contains(float(r.key)),
    Op.RANGE_1D: lambda store, r: store.range_query_1d(float(r.low), float(r.high)),
    Op.POINT_QUERY: lambda store, r: store.point_query(r.point),
    Op.RANGE_QUERY: lambda store, r: store.range_query(r.low, r.high),
    Op.KNN: lambda store, r: store.knn_query(r.point, r.k),
    Op.INSERT: lambda store, r: store.insert(store._target(r), r.value),
    Op.DELETE: lambda store, r: store.delete(store._target(r)),
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
        self.shards: list[Any] = []
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
        # Artifact provenance per shard: (directory, generation) set by
        # save_snapshot/from_snapshot, so the process backend can pack
        # segments straight from the files.  It holds only while the
        # shard's generation still equals the recorded one: every change
        # to a shard bumps its generation, which retires the artifact.
        self._artifacts: list[tuple[Path, int] | None] = [None] * num_shards

    # -- construction ------------------------------------------------------
    def build(self, data: np.ndarray, values: Sequence[object] | None = None) -> "ShardedStore":
        """Partition ``data`` and build one index per shard.

        The partition preserves the original input order inside every
        shard, so stable per-shard sorting reproduces the duplicate-key
        ordering of a single unsharded build.  Single-threaded: build
        before serving.
        """
        probe = self._factory()
        if isinstance(probe, MultiDimIndex):
            self.multi_dim = True
        elif not isinstance(probe, OneDimIndex):
            raise TypeError(
                f"factory must produce a OneDimIndex or MultiDimIndex, "
                f"got {type(probe).__name__}"
            )
        data = np.asarray(data)
        route_keys = np.asarray(data, dtype=np.float64)
        if route_keys.ndim != (2 if self.multi_dim else 1):
            raise ValueError("multi-d data must have shape (n, d)" if self.multi_dim
                             else "1-d data must be a flat key array")
        n = len(route_keys)
        if n and n < self.num_shards:
            raise ValueError("need at least one key (or point) per shard")
        if values is None and self.multi_dim:
            values = list(range(n))
        elif values is None:
            # Global ranks in sorted order (the OneDimIndex default),
            # aligned back to input positions.
            ranks = np.empty(n, dtype=np.int64)
            ranks[np.argsort(route_keys, kind="mergesort")] = np.arange(n)
            values = ranks.tolist()
        if len(values) != n:
            raise ValueError("values must align with data")
        if self.multi_dim:
            self.dims = route_keys.shape[1]
            self._lo = route_keys.min(axis=0) if n else np.zeros(self.dims)
            self._hi = route_keys.max(axis=0) if n else np.ones(self.dims)
            if self._bits is None:
                self._bits = min(16, 62 // max(self.dims, 1))
            require_code_budget(self.dims, self._bits)
            route_keys = self._encode(route_keys)

        self._bounds = self._split_bounds(route_keys)
        self._bound_list = self._bounds.tolist()
        self.shards = self._partition(data, route_keys, values, self._bounds)
        self._artifacts = [None] * self.num_shards
        self._built = True
        return self

    def _partition(self, data: np.ndarray, route_keys: np.ndarray,
                   values: Sequence[object], bounds: np.ndarray) -> list[Any]:
        """One fresh factory index per shard over the rows ``bounds`` send
        it, in input order (the split :meth:`build` and :meth:`rebalance`
        share).  No reader can reach an index before the caller publishes
        it, so the builds need no shard lock."""
        sids = np.searchsorted(bounds, route_keys, side="right")
        shards: list[Any] = []
        for s in range(self.num_shards):
            rows = np.flatnonzero(sids == s)
            shard: Any = self._factory()
            shard.build(data[rows], [values[i] for i in rows.tolist()])
            shards.append(shard)
        return shards

    def _split_bounds(self, route_keys: np.ndarray) -> np.ndarray:
        """Quantile split values: shard ``s`` owns keys in (b[s-1], b[s]].

        NaN keys take no part: a NaN bound would route differently under
        the scalar bisect and the vectorized ``searchsorted``.
        """
        ordered = np.sort(route_keys, kind="mergesort")
        if ordered.size and np.isnan(ordered[-1]):     # NaN sorts last
            ordered = ordered[:int(np.argmax(np.isnan(ordered)))]
        if ordered.size == 0:
            return ordered
        return ordered[np.arange(1, self.num_shards) * ordered.size // self.num_shards]

    def _checked_bounds(self, bounds: object) -> np.ndarray:
        """Split bounds given from outside the store (``rebalance(bounds=)``,
        a snapshot's ``store.json``) as an array, or ``ValueError``: there
        must be ``num_shards - 1`` of them, non-decreasing and not NaN."""
        arr = np.asarray(bounds, dtype=np.int64 if self.multi_dim else np.float64)
        if arr.shape != (self.num_shards - 1,):
            raise ValueError(f"need {self.num_shards - 1} split bounds, got {arr.size}")
        if np.isnan(arr).any() or np.any(arr[1:] < arr[:-1]):
            raise ValueError("split bounds must be non-decreasing and not NaN")
        return arr

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
    # as the bounds themselves hold no NaN (no bound source admits one)
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
        The homes hold for the bounds version read before the call.
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
                points = self._point_column([requests[i].point for i in rows.tolist()])
                column[rows] = points
                homes[rows] = self._route_column(points)
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

    def _point_column(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """``points`` as one ``(n, dims)`` float64 array: one ``fromiter``
        over the chained coordinates, after a width check (``fromiter``
        would otherwise let a long point and a short one cancel out)."""
        count = len(points)
        widths = np.fromiter(map(len, points), dtype=np.intp, count=count)
        if (widths != self.dims).any():
            raise ValueError(f"every point must have {self.dims} coordinates")
        flat = np.fromiter(chain.from_iterable(points), dtype=np.float64,
                           count=count * self.dims)
        return flat.reshape(count, self.dims)

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

    # -- the two locked call shapes ----------------------------------------
    def _owner_call(self, route: Callable[[Any], int], target: Any, op: Op,
                    value: object = None) -> Any:
        """``op`` on the shard that owns ``target``, under that shard's lock.

        ``route`` reads the bounds without a lock, so it runs again under
        the lock; a rebalance that moved ``target`` in between sends the
        call round again.  A read returns the shard index's answer; a
        write goes through :meth:`_apply_writes` and returns its result
        (an exception is returned, not raised).
        """
        self._require_built()
        while True:
            s = route(target)
            with self._locks[s]:
                if route(target) == s:
                    if op in WRITE_OPS:
                        return self._apply_writes(s, [(op, target, value)])[0]
                    return getattr(self.shards[s], op.value)(target)

    def _fan_out(self, shards: Callable[[], Iterable[int]], method: str,
                 *args: object) -> list:
        """``shard.method(*args)`` over the shards ``shards()`` routes to,
        concatenated, each shard read under its own lock.

        Routing reads the bounds without a lock, so the bounds version
        is taken first and re-checked under each shard lock; a rebalance
        anywhere in the fan-out restarts it from routing, so one call
        never mixes results from two partitions.
        """
        self._require_built()
        while True:
            version = self._bounds_version
            out: list = []
            for s in shards():
                with self._locks[s]:
                    if self._bounds_version != version:
                        break
                    out.extend(getattr(self.shards[s], method)(*args))
            else:
                return out

    # -- scalar queries ----------------------------------------------------
    def lookup(self, key: float) -> object | None:
        """Routed lookup (see :meth:`_owner_call` for the lock protocol)."""
        return self._owner_call(self.route_key, key, Op.LOOKUP)

    def contains(self, key: float) -> bool:
        """Routed membership test (see :meth:`_owner_call` for the lock protocol)."""
        return bool(self._owner_call(self.route_key, key, Op.CONTAINS))

    def point_query(self, point: Sequence[float]) -> object | None:
        """Routed exact-point query (see :meth:`_owner_call` for the lock protocol)."""
        return self._owner_call(self.route_point, point, Op.POINT_QUERY)

    def range_query_1d(self, low: float, high: float) -> list[tuple[float, object]]:
        """Concatenated shard scans: globally key-sorted, like one index
        (see :meth:`_fan_out` for the lock protocol)."""
        return self._fan_out(
            lambda: range(self.route_key(low), self.route_key(high) + 1),
            "range_query", low, high)

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list:
        """Multi-d box query over the Z-interval-pruned shard subset.

        Returns the same result *multiset* as one unsharded index (the
        repo's range contract — each index class already has its own
        internal result order); here results come back in shard order,
        each shard's slice in that index's native order.  See
        :meth:`_fan_out` for the lock protocol.
        """
        return self._fan_out(lambda: self._range_shards(low, high),
                             "range_query", low, high)

    def knn_query(self, point: Sequence[float], k: int) -> list:
        """Merge per-shard kNN candidate sets into the global top-k.

        Each shard returns *its* ``k`` nearest, so the union provably
        contains the global ``k`` nearest; re-sorting with the same
        distance formula (:func:`point_distances`) and ``(distance, point,
        value)`` tie-break the scalar path uses reproduces the unsharded
        answer.  The fan-out restarts if a rebalance lands mid-way (see
        :meth:`_fan_out` for the lock protocol), so a point that moved
        between shards is never seen zero or two times.
        """
        self._require_built()
        if k <= 0:
            return []
        q = np.asarray(point, dtype=np.float64)
        candidates = self._fan_out(lambda: range(self.num_shards),
                                   "knn_query", point, k)
        points = np.array([p for p, _ in candidates], dtype=np.float64)
        dists = point_distances(points.reshape(len(candidates), q.size), q)
        ranked = sorted((d, p, v) for d, (p, v) in zip(dists.tolist(), candidates))
        return [(p, v) for _, p, v in ranked[:k]]

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
        """Routed insert; bumps the shard generation under the shard lock."""
        self._write(Op.INSERT, key_or_point, value)

    def delete(self, key_or_point: object) -> bool:
        """Routed delete; bumps the shard generation under the shard lock."""
        return self._write(Op.DELETE, key_or_point)

    def _write(self, op: Op, target: object, value: object = None) -> Any:
        """One routed write through :meth:`_owner_call`; raises what the
        index raised (the shard lock's critical section still bumped the
        generation, as :meth:`execute_writes` does for a failing row)."""
        self._require_built()
        self._require_mutable(op.value)
        route = self.route_point if self.multi_dim else self.route_key
        result = self._owner_call(route, target, op, value)
        if isinstance(result, Exception):
            raise result
        return result

    def _target(self, request: Request) -> Any:
        """A write request's key (1-d) or point (multi-d)."""
        return request.point if self.multi_dim else request.key

    def _apply_writes(self, shard: int,
                      writes: Sequence[tuple[Op, Any, object]]) -> list[object]:
        """``(op, key or point, value)`` writes on ``shard`` in order, then
        one generation bump.

        Every caller holds the shard lock, so the bump versions exactly
        these writes.  A row's result is what the scalar path returns
        (``None`` for an insert, the removed flag for a delete) or the
        exception it raised: a failing row fails alone.
        """
        index = self.shards[shard]
        results: list[object] = []
        for op, target, value in writes:
            try:
                self._require_mutable(op.value)
                if not self.multi_dim:
                    target = float(target)
                if op is Op.INSERT:
                    index.insert(target, value)
                    results.append(None)
                else:
                    results.append(bool(index.delete(target)))
            except Exception as exc:
                results.append(exc)
        self.generations[shard] += 1
        return results

    # -- request execution (used by the coalescer workers) -----------------
    def execute(self, request: Request) -> object:
        """Answer one request through the scalar index paths."""
        call = _EXECUTE.get(request.op)
        if call is None:
            raise ValueError(f"unknown op {request.op!r}")
        return call(self, request)

    def execute_writes(self, shard: int, requests: Sequence[Request],
                       version: int | None = None) -> list[object]:
        """Apply a stretch of writes queued on ``shard``, in order, under
        one lock take and one generation bump.

        Returns one entry per request: what the scalar path returns
        (``None`` for an insert, the removed flag for a delete), or the
        exception that row raised.  A failing row fails alone: it
        neither stops the stretch nor escapes to the caller.  Routing is
        re-validated under the lock by :meth:`reroute` (``version`` is
        the bounds version the rows were routed under, if known); rows a
        rebalance moved off ``shard`` run afterwards through the routed
        scalar path, in order (a key's rows always move together, so
        per-key order holds).
        """
        self._require_built()
        targets = [self._target(r) for r in requests]
        column = np.asarray(targets, dtype=np.float64)
        results: list[object] = [None] * len(requests)
        with self._locks[shard]:
            _, kept = self.reroute(shard, column, version)
            rows = range(len(requests)) if kept is None else np.flatnonzero(kept).tolist()
            if rows:
                done = self._apply_writes(shard, [
                    (requests[i].op, targets[i], requests[i].value) for i in rows])
                for i, result in zip(rows, done):
                    results[i] = result
        moved = [] if kept is None else np.flatnonzero(~kept).tolist()
        for i in moved:
            try:
                results[i] = self._write(requests[i].op, targets[i], requests[i].value)
            except Exception as exc:
                results[i] = exc
        return results

    @staticmethod
    def request_column(op: Op, requests: Sequence[Request]) -> np.ndarray:
        """Float64 key (or point) column of one coalescable same-op run."""
        if op is Op.POINT_QUERY:
            return np.asarray([r.point for r in requests], dtype=np.float64)
        return np.asarray([r.key for r in requests], dtype=np.float64)

    def _route_column(self, column: np.ndarray) -> np.ndarray:
        """Current home shard per row of a key (1-d) or point (multi-d) column.

        Deliberately lock-free: callers read :attr:`bounds_version`
        first and either re-check it under the shard lock or after the
        work it guards (see :meth:`reroute`).
        """
        routed = self._encode(column) if self.multi_dim else column
        return np.searchsorted(self._bounds, routed, side="right")

    def reroute(self, shard: int, column: np.ndarray,
                version: int | None) -> tuple[int, np.ndarray | None]:
        """The one re-check rule for a queued run: ``(now, kept)``.

        ``version`` is the bounds version read before the run was routed
        to ``shard`` (``None`` if unknown).  ``now`` is the current
        version, read first; ``kept`` masks the rows the bounds of
        ``now`` still send to ``shard``, or is ``None`` when every row
        stays.  The column is routed again only when ``version`` is not
        ``now`` (else no row moved).  The answer is sound while the
        version stays ``now``: under the shard lock that holds by
        itself, because a rebalance swaps the bounds under every shard
        lock before it bumps the version; a lock-free caller re-checks
        :attr:`bounds_version` against ``now`` after the work it guards
        (:meth:`repro.serve.mp.ProcessShardExecutor.execute_columns`).
        """
        self._require_built()
        now = self._bounds_version
        if version == now:
            return now, None
        kept = self._route_column(column) == shard
        return now, None if kept.all() else kept

    def read_scalar(self, op: Op, row: Any) -> object:
        """One row of a coalescable run through the routed scalar path."""
        if op not in BATCH_KERNELS:
            raise ValueError(f"op {op!r} is not coalescable")
        if op is Op.POINT_QUERY:
            return self.execute(Request(op, point=tuple(row.tolist())))
        return self.execute(Request(op, key=float(row)))

    def merge_moved(self, op: Op, column: np.ndarray, kept: np.ndarray,
                    answers: np.ndarray) -> np.ndarray:
        """A run's answer column from the kernel ``answers`` of its
        ``kept`` rows (a mask) plus :meth:`read_scalar` for the rows a
        rebalance moved off the shard (both backends' fallback)."""
        out = np.empty(len(column), dtype=object)
        out[kept] = answers
        for i in np.flatnonzero(~kept).tolist():
            out[i] = self.read_scalar(op, column[i])
        return out

    def execute_columns(self, shard: int, op: Op, column: np.ndarray,
                        version: int | None = None) -> np.ndarray:
        """Answer a same-shard run of one coalescable op in one kernel call.

        ``column`` holds the run's keys (or points) in queue order; the
        result is an object ndarray aligned with it (``contains``
        answers as Python bools).  The caller (a coalescer worker)
        routed every row to ``shard`` at enqueue time, under bounds
        ``version``; a rebalance may have moved keys off this shard
        while the run sat in the queue, so :meth:`reroute` re-validates
        the routing under the shard lock (re-routing only if the version
        moved, or is not given).  Still-owned rows are answered by one
        vectorized kernel call (where coalescing earns its throughput);
        moved rows fall back to :meth:`read_scalar`, which re-routes
        them safely after the lock is released.
        """
        self._require_built()
        kernel = BATCH_KERNELS.get(op)
        if kernel is None:
            raise ValueError(f"op {op!r} is not coalescable")
        with self._locks[shard]:
            _, kept = self.reroute(shard, column, version)
            batch = getattr(self.shards[shard], kernel)
            if kept is None:
                return _as_objects(batch(column))
            answers = _as_objects(batch(column[kept])) if kept.any() else []
        return self.merge_moved(op, column, kept, answers)

    def execute_batch(self, shard: int, op: Op, requests: Sequence[Request]) -> list[object]:
        """:meth:`execute_columns` for a run given as ``Request`` objects
        (no routing version: every row is re-routed under the lock)."""
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

    def _items_locked(self, shards: Iterable[int]) -> tuple[np.ndarray, list]:
        """The ``(key or point, value)`` items of ``shards`` as a float64
        data column (keys, or ``(n, dims)`` points) and a value list.

        The caller must hold those shards' locks.  1-d shards enumerate
        via an unbounded range scan; multi-d shards scan the build-time
        bounding box, which is the whole routable domain (the Morton
        lattice clamps points to it).
        """
        low, high = (self._lo, self._hi) if self.multi_dim else (-np.inf, np.inf)
        items = [item for s in shards for item in self.shards[s].range_query(low, high)]
        shape = (len(items), self.dims) if self.multi_dim else (len(items),)
        data = np.asarray([k for k, _v in items], dtype=np.float64).reshape(shape)
        return data, [v for _k, v in items]

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
        routing snapshot is current.  The bumps also retire every
        shard's artifact provenance, which makes the process backend
        republish every worker snapshot.
        """
        self._require_built()
        with ExitStack() as stack:
            for s in range(self.num_shards):
                stack.enter_context(self._locks[s])
            data, values = self._items_locked(range(self.num_shards))
            route_keys = self._encode(data) if self.multi_dim else data
            if bounds is not None:
                new_bounds = self._checked_bounds(bounds)
            else:
                # A NaN probe says nothing about where keys sit: drop it.
                probe = np.asarray([] if sample is None else sample, dtype=np.float64)
                probe = probe.reshape(-1, self.dims if self.multi_dim else 1)
                probe = probe[~np.isnan(probe).any(axis=1)]
                split = route_keys
                if probe.size:
                    split = self._encode(probe) if self.multi_dim else probe.ravel()
                new_bounds = self._split_bounds(split)
            fresh = self._partition(data, route_keys, values, new_bounds)
            for s in range(self.num_shards):
                with self._locks[s]:
                    self.shards[s] = fresh[s]
                    self.generations[s] += 1
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
            index = self.shards[shard]
            if not callable(getattr(index, "tune", None)):
                return False
            if candidates is None:
                index.tune(list(workload))
            else:
                index.tune(list(workload), candidates=tuple(candidates))
            self.generations[shard] += 1
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
            index = self.shards[shard]
            if callable(getattr(index, "compact", None)):
                index.compact()
            else:
                fresh: Any = self._factory()
                fresh.build(*self._items_locked([shard]))
                self.shards[shard] = fresh
            self.generations[shard] += 1

    # -- snapshot export (the multi-process backend's feed) ----------------
    def snapshot_source(self, shard: int) -> tuple[Path | None, IndexState | None, int]:
        """Best snapshot feed for one shard: artifact files or live export.

        Under the shard lock: if the shard is still byte-identical to
        the artifact directory it was saved to / restored from (its
        generation has not moved since), return that directory so the
        executor can pack the worker segment **straight from the files**
        (:func:`repro.serve.shm.pack_artifact`) — no state export, no
        payload unpickle in the parent.  A shard that has changed since
        falls back to a live state export.  Returns ``(artifact_dir,
        state, generation)`` with exactly one of the first two non-None.
        """
        self._require_built()
        with self._locks[shard]:
            generation = self.generations[shard]
            artifact = self._artifacts[shard]
            if artifact is not None and artifact[1] == generation:
                return artifact[0], None, generation
            return None, self.shards[shard].export_state(), generation

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
                    state = self.shards[s].export_state()
                    generation = self.generations[s]
                write_artifact(state, root / rel)
                with self._locks[s]:
                    if self.generations[s] == generation:
                        self._artifacts[s] = (root / rel, generation)
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

        Every shard is reconstructed from its artifact (read-only views
        over the mapped blocks file by default — pass ``mmap_mode=None``
        for a writable private copy); partition bounds and generation counters resume
        exactly where they were saved.  No index ``build()`` runs.
        """
        root = Path(directory)
        meta_path = root / _STORE_META
        meta = read_header(meta_path, STORE_SNAPSHOT_FORMAT, STORE_SNAPSHOT_VERSION)
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
        try:
            store._bounds = store._checked_bounds(meta["bounds"])
        except (TypeError, ValueError) as exc:
            raise ArtifactError(f"{meta_path}: bad partition bounds: {exc}") from exc
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
        store._artifacts = [(root / rel, g) for rel, g in zip(shard_dirs, generations)]
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
                out = out.merge(self.shards[s].stats)
        return out

    def shard_sizes(self) -> list[int]:
        """Number of entries held by each shard, each read under its lock."""
        sizes: list[int] = []
        for s in range(len(self.shards)):
            with self._locks[s]:
                sizes.append(len(self.shards[s]))
        return sizes

    def __len__(self) -> int:
        return sum(self.shard_sizes())
