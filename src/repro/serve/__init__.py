"""repro.serve -- sharded, request-coalescing index-serving layer.

The serving layer turns the library's indexes into a concurrent service:
a :class:`ShardedStore` partitions keys (1-d range split) or points
(Z-order-prefix split) across index instances, a :class:`Coalescer`
batches concurrently submitted scalar requests into the ``*_batch``
kernels from PR 1/2, a :class:`ResultCache` short-circuits repeated
reads with generation-based write invalidation, and
:class:`ServerStats` records throughput and tail-latency histograms.
:class:`IndexServer` is the facade gluing them together; the
:mod:`repro.serve.workload` module provides seeded workload generators
and the closed-loop driver behind experiments E19/E20.

PR 6 adds a **multi-process backend**: :mod:`repro.serve.shm` packs each
shard's exported state into shared-memory snapshots and
:class:`ProcessShardExecutor` runs one worker process per shard mapping
those snapshots zero-copy, so fused batch windows execute outside the
GIL (``IndexServer(..., backend="process")``).
"""

from repro.serve.cache import ResultCache
from repro.serve.coalescer import Coalescer, Ticket
from repro.serve.mp import ProcessShardExecutor, WorkerDied
from repro.serve.requests import (
    COALESCABLE_OPS,
    READ_OPS,
    WRITE_OPS,
    Op,
    Overloaded,
    Request,
    Response,
    WorkerError,
)
from repro.serve.server import IndexServer
from repro.serve.sharding import ShardedStore
from repro.serve.shm import ShardManifest, SnapshotIntegrityError, attach_view, pack_state
from repro.serve.stats import LatencyHistogram, ServerStats
from repro.serve.workload import WORKLOADS, make_workload, run_closed_loop

__all__ = [
    "Op",
    "Request",
    "Response",
    "Overloaded",
    "WorkerError",
    "COALESCABLE_OPS",
    "READ_OPS",
    "WRITE_OPS",
    "ShardedStore",
    "Coalescer",
    "Ticket",
    "ProcessShardExecutor",
    "WorkerDied",
    "ShardManifest",
    "SnapshotIntegrityError",
    "attach_view",
    "pack_state",
    "ResultCache",
    "LatencyHistogram",
    "ServerStats",
    "IndexServer",
    "WORKLOADS",
    "make_workload",
    "run_closed_loop",
]
