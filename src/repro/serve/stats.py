"""Serving-side observability: latency histograms and per-shard counters.

The benchmark story of the serving layer is throughput *and tail
latency* (SOSD reports throughput; "Are Updatable Learned Indexes
Ready?" shows the tails are where designs differentiate), so the stats
layer records a log-bucketed latency histogram with p50/p95/p99 readout
next to plain request counters.  Index-side cost counters ride along by
merging the per-shard :class:`repro.core.interfaces.IndexStats` objects
(:meth:`IndexStats.merge`) into one snapshot.
"""

from __future__ import annotations

import math

from repro.core.interfaces import IndexStats
from repro.core.lockorder import make_lock

__all__ = ["LatencyHistogram", "ServerStats"]

#: Histogram bucket upper bounds: 1us * 2^i, i in [0, _BUCKETS).  The last
#: bucket (~2200s) is an overflow catch-all.
_BUCKETS = 32

#: Lower edge of the overflow bucket in microseconds (``2^(_BUCKETS-1)``).
_OVERFLOW_US = 2.0 ** (_BUCKETS - 1)


def _bucket(micros: float) -> int:
    """Index of the smallest bucket whose bound ``2^i`` us is >= ``micros``.

    Constant time: ``frexp`` writes ``micros = m * 2^e`` with ``m`` in
    ``[0.5, 1)``, so the answer is ``e``, or ``e - 1`` when ``micros`` is
    itself a power of two.  The two guards give zero, negative and NaN
    observations bucket 0 and everything past the last bound (infinity
    included) the overflow bucket.
    """
    if not micros > 1.0:
        return 0
    if micros >= _OVERFLOW_US:
        return _BUCKETS - 1
    mantissa, exponent = math.frexp(micros)
    return exponent - 1 if mantissa == 0.5 else exponent


class LatencyHistogram:
    """Log2-bucketed latency histogram with percentile readout.

    Buckets double from 1 microsecond; ``percentile`` returns the upper
    bound of the bucket containing the requested quantile, which is the
    usual HdrHistogram-style bounded-error estimate.  ``record`` is
    lock-free on CPython (single list-index increment under the GIL);
    cross-thread aggregation goes through :meth:`merge` on drained
    copies instead.
    """

    def __init__(self) -> None:
        self.counts = [0] * _BUCKETS
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Record one latency observation (in seconds)."""
        self.record_n(seconds, 1)

    def record_n(self, seconds: float, count: int) -> None:
        """Record ``count`` observations of the same latency at once.

        A coalesced run completes together, so all its requests share
        one latency: one bucket update instead of ``count``.
        """
        self.counts[_bucket(seconds * 1e6)] += count
        self.total += count
        self.sum_seconds += seconds * count
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, p: float) -> float:
        """Upper-bound estimate (seconds) of the ``p``-th percentile."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.total == 0:
            return 0.0
        target = max(1, int(round(self.total * p / 100.0)))
        seen = 0
        for bucket, count in enumerate(self.counts):
            seen += count
            if seen >= target:
                return (2.0 ** bucket) * 1e-6
        return (2.0 ** (_BUCKETS - 1)) * 1e-6

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Return a new histogram combining both observation sets."""
        out = LatencyHistogram()
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.total = self.total + other.total
        out.sum_seconds = self.sum_seconds + other.sum_seconds
        out.max_seconds = max(self.max_seconds, other.max_seconds)
        return out

    def snapshot(self) -> dict[str, float]:
        """Plain-dict summary (microsecond percentiles, mean, max)."""
        mean = self.sum_seconds / self.total * 1e6 if self.total else 0.0
        return {
            "count": float(self.total),
            "mean_us": mean,
            "p50_us": self.percentile(50.0) * 1e6,
            "p95_us": self.percentile(95.0) * 1e6,
            "p99_us": self.percentile(99.0) * 1e6,
            "max_us": self.max_seconds * 1e6,
        }


class ServerStats:
    """Thread-safe request counters and latency histograms for one server.

    Tracks global counters (requests, sheds, cache hits/misses, batches),
    per-shard request/batch counts with queue high-water marks, and one
    latency histogram per operation family.  Counter updates take a
    single internal lock — a cache hit makes one call
    (:meth:`record_hit`), a miss two, so contention stays negligible
    next to the index work itself.
    """

    def __init__(self, num_shards: int) -> None:
        self._lock = make_lock("ServerStats._lock")
        self.num_shards = num_shards
        self.requests = 0
        self.responses = 0
        self.shed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches = 0
        self.batched_requests = 0
        self.writes = 0
        self.worker_restarts = 0
        self.kernel_faults = 0
        self.per_shard_requests = [0] * num_shards
        self.per_shard_batches = [0] * num_shards
        self.queue_high_water = [0] * num_shards
        self.latency = LatencyHistogram()

    # -- recording hooks (called from client and worker threads) ----------
    def record_submit(self, shard: int, depth: int) -> None:
        with self._lock:
            self.requests += 1
            self.per_shard_requests[shard] += 1
            if depth > self.queue_high_water[shard]:
                self.queue_high_water[shard] = depth

    def record_submit_many(self, shard: int, count: int, depth: int) -> None:
        """Batched :meth:`record_submit` — one lock acquisition per window."""
        with self._lock:
            self.requests += count
            self.per_shard_requests[shard] += count
            if depth > self.queue_high_water[shard]:
                self.queue_high_water[shard] = depth

    def record_shed(self, count: int = 1) -> None:
        with self._lock:
            self.requests += count
            self.shed += count

    def record_batch(self, shard: int, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            self.per_shard_batches[shard] += 1

    def record_done(self, seconds: float) -> None:
        """One read answered after ``seconds`` (writes are recorded in
        stretches through :meth:`record_done_many`)."""
        with self._lock:
            self.responses += 1
            self.latency.record_n(seconds, 1)

    def record_done_many(self, latencies: list[float], writes: int = 0,
                         counts: list[int] | None = None) -> None:
        """Batched :meth:`record_done` — one lock acquisition per kernel call.

        ``counts[i]`` requests completed after ``latencies[i]`` seconds
        each (the rows of one queued run share a latency); without
        ``counts`` every latency stands for one request.
        """
        if counts is None:
            counts = [1] * len(latencies)
        with self._lock:
            self.responses += sum(counts)
            self.writes += writes
            record_n = self.latency.record_n
            for seconds, count in zip(latencies, counts):
                record_n(seconds, count)

    def record_worker_restart(self) -> None:
        """Count one shard-worker process restart (process backend only)."""
        with self._lock:
            self.worker_restarts += 1

    def record_kernel_fault(self) -> None:
        """Count one batch kernel call that raised (should stay 0)."""
        with self._lock:
            self.kernel_faults += 1

    def record_hit(self) -> None:
        """One read answered from the result cache: a hit and a
        zero-latency response under one lock take."""
        with self._lock:
            self.cache_hits += 1
            self.responses += 1
            latency = self.latency  # record_n(0.0, 1): bucket 0, nothing to add
            latency.counts[0] += 1
            latency.total += 1

    def record_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    # -- reporting ---------------------------------------------------------
    def tuning_snapshot(self) -> dict[str, object]:
        """One-lock consistent copy of counters + raw latency buckets.

        The ``repro.tune`` signal layer subtracts two of these to get an
        *exact* per-window view (including a window latency histogram
        from the raw bucket counts); taking everything under a single
        lock acquisition means no counter in the copy can be newer than
        another — the windowed summaries stay internally consistent even
        while recorder threads keep appending.
        """
        with self._lock:
            return {
                "requests": self.requests,
                "responses": self.responses,
                "shed": self.shed,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "writes": self.writes,
                "worker_restarts": self.worker_restarts,
                "per_shard_requests": list(self.per_shard_requests),
                "per_shard_batches": list(self.per_shard_batches),
                "queue_high_water": list(self.queue_high_water),
                "latency_counts": list(self.latency.counts),
                "latency_total": self.latency.total,
                "latency_sum_seconds": self.latency.sum_seconds,
                "latency_max_seconds": self.latency.max_seconds,
            }

    def snapshot(self, index_stats: IndexStats | None = None) -> dict[str, object]:
        """Plain-dict view: counters, per-shard arrays, latency, index costs.

        ``index_stats`` is typically the :meth:`IndexStats.merge` fold of
        the per-shard stats; its :meth:`IndexStats.snapshot` dict is
        embedded under ``"index"`` so one artifact carries both the
        serving-side and the index-side story.
        """
        with self._lock:
            avg_batch = self.batched_requests / self.batches if self.batches else 0.0
            out: dict[str, object] = {
                "requests": self.requests,
                "responses": self.responses,
                "shed": self.shed,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "avg_batch": avg_batch,
                "writes": self.writes,
                "worker_restarts": self.worker_restarts,
                "kernel_faults": self.kernel_faults,
                "per_shard_requests": list(self.per_shard_requests),
                "per_shard_batches": list(self.per_shard_batches),
                "queue_high_water": list(self.queue_high_water),
                "latency": self.latency.snapshot(),
            }
        if index_stats is not None:
            out["index"] = index_stats.snapshot()
        return out
