"""`IndexServer`: sharding + coalescing + caching behind one facade.

The server wires the pieces of the serving layer together:

* a :class:`~repro.serve.sharding.ShardedStore` partitions the data and
  owns the per-shard locks and write generations,
* a :class:`~repro.serve.coalescer.Coalescer` queues concurrent scalar
  requests and drains them through the batch kernels,
* a :class:`~repro.serve.cache.ResultCache` answers repeated reads
  without touching a queue, keyed on (request, involved shards, shard
  generations) so any write to an involved shard invalidates the entry,
* a :class:`~repro.serve.stats.ServerStats` collects counters and
  latency histograms for the E19 artifact.

Clients either ``submit()`` requests asynchronously (tickets resolving
to :class:`Response` / :class:`Overloaded`) or use the synchronous
convenience methods (``lookup``/``point_query``/...), which mirror the
index interfaces exactly — same arguments, same return values — so a
server can stand in for a bare index in parity tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.serve.cache import ResultCache
from repro.serve.coalescer import Coalescer, Ticket
from repro.serve.mp import ProcessShardExecutor
from repro.serve.requests import OPS_BY_CODE, READ_OPS, Op, Overloaded, Request
from repro.serve.sharding import ShardedStore
from repro.serve.stats import ServerStats

__all__ = ["IndexServer"]

_MISS = object()

#: Per ``Op.code``: is the op a cacheable read (a tuple index instead of
#: hashing an enum member per request).
_CACHEABLE = tuple(op in READ_OPS for op in OPS_BY_CODE)


class IndexServer:
    """A sharded, coalescing, caching front-end over learned indexes.

    Args:
        factory: zero-argument index constructor handed to the store.
        num_shards: partition count (one worker thread per shard).
        max_batch: most requests per kernel call; ``None`` (the default)
            drains each shard's whole queue on every worker wake-up,
            ``1`` serves one-at-a-time.
        capacity: per-shard admission-control queue bound.
        cache_size: result-cache entries; ``0`` disables caching.
        cache_ttl: optional result-cache TTL in seconds.
        backend: ``"thread"`` (default) executes fused windows on the
            coalescer's dispatch threads; ``"process"`` ships them to
            one worker process per shard over shared-memory snapshots
            (:class:`~repro.serve.mp.ProcessShardExecutor`), escaping
            the GIL for the kernel work.  Writes always execute in this
            process either way.
    """

    def __init__(self, factory: Callable[[], object], num_shards: int = 4,
                 max_batch: int | None = None, capacity: int = 4096,
                 cache_size: int = 0, cache_ttl: float | None = None,
                 backend: str = "thread", *,
                 _store: ShardedStore | None = None) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
        self.backend = backend
        # ``_store`` is from_snapshot's hand-over of an already restored
        # store (private: everyone else gets a fresh, unbuilt one).
        self._store = (_store if _store is not None
                       else ShardedStore(factory, num_shards=num_shards))
        self._stats = ServerStats(self._store.num_shards)
        self._cache = ResultCache(capacity=cache_size, ttl=cache_ttl)
        self._executor: ProcessShardExecutor | None = None
        self._coalescer = Coalescer(self._store, self._stats,
                                    max_batch=max_batch, capacity=capacity)
        # Workload observer hook (repro.tune): called once per submitted
        # request on the client thread, with no server lock held.  None
        # (the default) keeps the serving hot path completely untouched.
        self._observer: Callable[[Request], None] | None = None
        self._observer_many: Callable[[Sequence[Request]], None] | None = None
        # Attached control plane (duck-typed: anything with close()).
        self._tuner: object | None = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def build(self, data: np.ndarray, values: Sequence[object] | None = None) -> "IndexServer":
        """Build the sharded store and start the shard workers.

        Per-shard index builds run inside :meth:`ShardedStore.build`,
        which acquires each shard's lock around the underlying
        ``build`` call.
        """
        self._store.build(data, values)
        self._cache.clear()
        self._start_serving()
        return self

    def close(self) -> None:
        """Drain outstanding requests, stop shard workers, release segments.

        Idempotent end to end: an attached tuner stops first (no more
        actuations land on a draining store), then the coalescer closes
        (workers drain their queues and any leftovers are served
        synchronously — see :meth:`Coalescer.close`), and only then does
        the process executor shut down, so every queued request still
        had a live backend when it executed.
        """
        if not self._closed:
            tuner = self._tuner
            if tuner is not None:
                tuner.close()  # type: ignore[attr-defined]
            self._coalescer.close()
            if self._executor is not None:
                self._executor.close()
            self._closed = True

    # -- control-plane hooks (repro.tune) -----------------------------------
    def attach_observer(self, observer: Callable[[Request], None] | None,
                        tuner: object | None = None) -> None:
        """Install (or clear) the per-request workload observer hook.

        ``observer`` is invoked on the submitting client thread for
        every admitted request, before routing; it must be cheap and
        thread-safe (the tuner's observer appends to bounded
        lock-protected rings).  When the observer also exposes an
        ``observe_many(requests)`` method, the windowed submission paths
        use it — one observer-lock acquisition per window instead of per
        request, which matters with many client threads.  ``tuner``,
        when given, is retained so :meth:`close` can stop the attached
        control plane (duck-typed: any object with a ``close()``
        method).
        """
        self._observer = observer
        self._observer_many: Callable[[Sequence[Request]], None] | None = (
            getattr(observer, "observe_many", None)
        )
        self._tuner = tuner

    def _observe_many(self, requests: Sequence[Request]) -> None:
        """Feed a window of requests to the attached observer, if any."""
        observe_many = self._observer_many
        if observe_many is not None:
            observe_many(requests)
            return
        observer = self._observer
        if observer is not None:
            for request in requests:
                observer(request)

    def _start_serving(self) -> None:
        """Start the executor (process backend) and the coalescer threads."""
        if self.backend == "process":
            # Spawn workers before the coalescer threads exist so they
            # fork from a single-threaded parent.
            self._executor = ProcessShardExecutor(self._store, self._stats)
            self._executor.start()
            self._coalescer.executor = self._executor
        self._coalescer.start()

    # -- snapshot persistence (cold-start restore) -------------------------
    def save_snapshot(self, directory: str | Path) -> Path:
        """Persist every shard's built state + bounds + generations.

        Delegates to :meth:`ShardedStore.save_snapshot`: one index
        artifact directory per shard (each exported under its shard
        lock) plus ``store.json`` with the partitioner metadata and the
        generation each artifact reflects.  The server keeps serving
        while the snapshot is written; a shard that takes a write
        mid-snapshot is simply recorded at its pre-write generation.
        """
        return self._store.save_snapshot(directory)

    @classmethod
    def from_snapshot(cls, directory: str | Path,
                      factory: Callable[[], object] | None = None,
                      mmap_mode: str | None = "r",
                      max_batch: int | None = None, capacity: int = 4096,
                      cache_size: int = 0, cache_ttl: float | None = None,
                      backend: str = "thread") -> "IndexServer":
        """Restore a serving-ready server from :meth:`save_snapshot` output.

        Cold start without rebuilding: every shard is reconstructed from
        its artifact (read-only views over the mapped blocks file under
        the default ``mmap_mode="r"``) and **no index ``build()`` runs**.  Restored
        generation counters resume where the snapshot left them, so
        result-cache keys stay on the same generation sequence across
        the restart.  ``factory`` is only needed if the store will ever
        be rebuilt in place; serving needs none.
        """
        store = ShardedStore.from_snapshot(
            directory, factory=factory, mmap_mode=mmap_mode
        )
        server = cls(
            store._factory, num_shards=store.num_shards,
            max_batch=max_batch, capacity=capacity,
            cache_size=cache_size, cache_ttl=cache_ttl, backend=backend,
            _store=store,
        )
        server._start_serving()
        return server

    def __enter__(self) -> "IndexServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- asynchronous surface ---------------------------------------------
    def submit(self, request: Request) -> Ticket:
        """Route one request; returns a :class:`Ticket` resolving to a Response.

        Reads first consult the result cache under a key that includes
        every involved shard's current write generation — a hit skips
        the queue entirely and returns an already-resolved ticket
        holding the cached (immutable) :class:`Response`; a miss
        enqueues with a completion callback that fills the cache (keyed
        on the generations observed *before* execution, so a
        concurrent write either bumps the generation first, making the
        filled entry unreachable, or commits after, making the cached
        value stale-free).
        """
        observer = self._observer
        if observer is not None:
            observer(request)
        cache = self._cache
        if _CACHEABLE[request.op.code] and cache.capacity > 0:
            store = self._store
            version = store.bounds_version
            shards = store.route(request)
            generations = store.generations
            key = (request.cache_args(), shards, tuple([generations[s] for s in shards]))
            hit = cache.get(key, _MISS)
            if hit is not _MISS:
                self._stats.record_hit()
                return Ticket(hit)  # type: ignore[arg-type]
            self._stats.record_cache(False)
            return self._coalescer.submit(
                request, callback=lambda response: cache.put(key, response),
                home=shards[0] if shards else 0, version=version,
            )
        return self._coalescer.submit(request)

    def submit_many(self, requests: Sequence[Request]) -> list[Ticket]:
        """Submit a pipelined window of requests, routing it in bulk.

        With the result cache disabled this goes through the coalescer's
        vectorized admission path (one routing pass, one lock take per
        shard); with caching enabled it degrades to per-request
        :meth:`submit` so every read still consults the cache.
        """
        if self._cache.capacity > 0:
            return [self.submit(request) for request in requests]
        self._observe_many(requests)
        return self._coalescer.submit_many(list(requests))

    def serve_window(self, requests: Sequence[Request]) -> list[object]:
        """Submit a window and block for its raw results (fastest path).

        Returns result values in submission order; shed requests appear
        as :class:`Overloaded` instances.  With the result cache enabled
        this degrades to the per-request ticket path so reads stay cached.
        This is the coalesced-arm path of the closed-loop driver behind
        E19.
        """
        if self._cache.capacity > 0:
            out: list[object] = []
            for ticket in [self.submit(request) for request in requests]:
                response = ticket.result()
                out.append(response if isinstance(response, Overloaded) else response.value)
            return out
        self._observe_many(requests)
        return self._coalescer.submit_window(list(requests)).wait()

    # -- synchronous convenience surface -----------------------------------
    def _call(self, request: Request) -> object:
        response = self.submit(request).result()
        if isinstance(response, Overloaded):
            raise RuntimeError(
                f"server overloaded (queue depth {response.depth}); "
                "synchronous calls do not retry"
            )
        return response.value

    def lookup(self, key: float) -> object | None:
        """Scalar-parity 1-d lookup through the serving path."""
        return self._call(Request(op=Op.LOOKUP, key=float(key)))

    def contains(self, key: float) -> bool:
        """Scalar-parity 1-d membership test through the serving path."""
        return bool(self._call(Request(op=Op.CONTAINS, key=float(key))))

    def range_query_1d(self, low: float, high: float) -> list[tuple[float, object]]:
        """Scalar-parity 1-d range scan through the serving path."""
        return self._call(  # type: ignore[return-value]
            Request(op=Op.RANGE_1D, low=float(low), high=float(high))
        )

    def point_query(self, point: Sequence[float]) -> object | None:
        """Scalar-parity multi-d exact-point query through the serving path."""
        return self._call(Request(op=Op.POINT_QUERY, point=tuple(float(x) for x in point)))

    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list:
        """Scalar-parity multi-d box query through the serving path."""
        return self._call(  # type: ignore[return-value]
            Request(op=Op.RANGE_QUERY,
                    low=tuple(float(x) for x in low),
                    high=tuple(float(x) for x in high))
        )

    def knn_query(self, point: Sequence[float], k: int) -> list:
        """Scalar-parity multi-d k-nearest-neighbour query."""
        return self._call(  # type: ignore[return-value]
            Request(op=Op.KNN, point=tuple(float(x) for x in point), k=int(k))
        )

    def insert(self, key_or_point: object, value: object = None) -> None:
        """Routed insert; the store bumps the shard generation under its lock,
        which invalidates every cached read involving that shard."""
        if self._store.multi_dim:
            req = Request(op=Op.INSERT,
                          point=tuple(float(x) for x in key_or_point),  # type: ignore[union-attr]
                          value=value)
        else:
            req = Request(op=Op.INSERT, key=float(key_or_point), value=value)  # type: ignore[arg-type]
        self._call(req)

    def delete(self, key_or_point: object) -> bool:
        """Routed delete; generation bump happens under the shard lock in
        the store, keeping cached reads for that shard unreachable."""
        if self._store.multi_dim:
            req = Request(op=Op.DELETE,
                          point=tuple(float(x) for x in key_or_point))  # type: ignore[union-attr]
        else:
            req = Request(op=Op.DELETE, key=float(key_or_point))  # type: ignore[arg-type]
        return bool(self._call(req))

    # -- introspection -----------------------------------------------------
    @property
    def store(self) -> ShardedStore:
        return self._store

    @property
    def multi_dim(self) -> bool:
        return self._store.multi_dim

    @property
    def server_stats(self) -> ServerStats:
        """The live counter recorder (the ``repro.tune`` signal source)."""
        return self._stats

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict[str, object]:
        """Combined serving + index + cache counter snapshot.

        With the process backend, worker-side query-cost deltas (drained
        over the worker pipes) merge into the index counters via
        :meth:`IndexStats.merge`, so the snapshot reflects work done in
        every process, not just this one.
        """
        index_stats = self._store.stats()
        if self._executor is not None and not self._closed:
            index_stats = index_stats.merge(self._executor.index_stats())
        out = self._stats.snapshot(index_stats=index_stats)
        out["cache"] = self._cache.snapshot()
        out["shard_sizes"] = self._store.shard_sizes()
        out["queue_depths"] = self._coalescer.queue_depths()
        out["backend"] = self.backend
        return out
