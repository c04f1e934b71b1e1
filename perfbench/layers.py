"""The traced run: a single-threaded ladder up the serving stack.

Each workload's seeded windows are driven, one at a time and from this
file only, through every public rung between a bare ``Request`` and a
live server -- ``Request`` construction, ``store.route_home_batch``,
the per-shard batch kernel, ``store.execute_batch``, an unstarted
``Coalescer``'s ``submit_window`` + ``flush``, live ``serve_window`` /
``submit``, and ``ProcessShardExecutor.execute_batch`` -- with a span
around each call.  A ``*_us_per_*`` metric is the median over
``REPEATS`` sweeps of the sweep's total time divided by its unit count;
``*_self_*`` metrics are one rung minus the rung below it.  Counts
marked exact in the README repeat bit-for-bit for a given seed.

A traced run always climbs all five ladders (every per-layer metric is
printed whichever workload was asked for); the ``driver.*`` metrics
and ``trace.overhead_share`` come from the asked-for workload, driven
closed-loop once untraced and once with a span around every client
call.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import itertools
import pickle
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Sequence

import numpy as np

from perfbench import measure, workloads
from perfbench.workloads import Fixture
from repro.core.artifact import load_index_artifact, read_manifest, save_index_artifact
from repro.curves.zorder import zencode_array
from repro.multidim.zm_index import ZMIndex
from repro.onedim.pgm import DynamicPGMIndex
from repro.serve.cache import ResultCache
from repro.serve.coalescer import Coalescer
from repro.serve.mp import ProcessShardExecutor
from repro.serve.requests import Op, Request, Response
from repro.serve.sharding import ShardedStore
from repro.serve.shm import attach_view, pack_artifact, release_segment
from repro.serve.stats import ServerStats

REPEATS = 5               # sweeps per rung; the metric is the median sweep
SHORT_PASS_S = 1.0        # closed-loop pass of the workloads not asked for

#: name -> (unit, better).  BENCHMARK.json's per_layer list is this table.
PER_LAYER: dict[str, tuple[str, str]] = {
    "onedim.rmi.lookup_batch_us_per_key": ("us", "lower"),
    "onedim.pgm.lookup_batch_us_per_key": ("us", "lower"),
    "onedim.pgm.range_query_us_per_call": ("us", "lower"),
    "onedim.dynamic_pgm.insert_us_per_op": ("us", "lower"),
    "onedim.dynamic_pgm.delete_us_per_op": ("us", "lower"),
    "onedim.dynamic_pgm.lookup_batch_us_per_key": ("us", "lower"),
    "onedim.build_s": ("s", "lower"),
    "multidim.zm.point_query_batch_us_per_point": ("us", "lower"),
    "multidim.flood.range_query_batch_us_per_box": ("us", "lower"),
    "multidim.zm.knn_query_us_per_call": ("us", "lower"),
    "multidim.build_s": ("s", "lower"),
    "curves.zencode_array_ns_per_point": ("ns", "lower"),
    "index.model_predictions_per_lookup": ("count", "lower"),
    "index.corrections_per_lookup": ("count", "lower"),
    "index.nodes_visited_per_lookup": ("count", "lower"),
    "index.keys_scanned_per_range": ("count", "lower"),
    "requests.construct_us_per_req": ("us", "lower"),
    "requests.cache_args_us_per_req": ("us", "lower"),
    "sharding.route_home_batch_us_per_req": ("us", "lower"),
    "sharding.route_home_batch_md_us_per_req": ("us", "lower"),
    "sharding.route_us_per_req": ("us", "lower"),
    "sharding.kernel_us_per_req": ("us", "lower"),
    "sharding.execute_batch_us_per_req": ("us", "lower"),
    "sharding.execute_batch_self_us_per_req": ("us", "lower"),
    "sharding.insert_us_per_op": ("us", "lower"),
    "sharding.delete_us_per_op": ("us", "lower"),
    "sharding.range_query_1d_us_per_call": ("us", "lower"),
    "sharding.build_s": ("s", "lower"),
    "sharding.save_snapshot_s": ("s", "lower"),
    "sharding.from_snapshot_s": ("s", "lower"),
    "coalescer.submit_window_us_per_req": ("us", "lower"),
    "coalescer.flush_self_us_per_req": ("us", "lower"),
    "coalescer.submit_us_per_req": ("us", "lower"),
    "coalescer.future_resolve_us_per_req": ("us", "lower"),
    "coalescer.wait_us_per_window": ("us", "lower"),
    "coalescer.avg_batch": ("count", "higher"),
    "coalescer.batches_per_window": ("count", "lower"),
    "coalescer.shed_share": ("ratio", "lower"),
    "cache.get_hit_us": ("us", "lower"),
    "cache.get_miss_us": ("us", "lower"),
    "cache.put_us": ("us", "lower"),
    "cache.hit_share": ("ratio", "higher"),
    "cache.evictions_per_kop": ("count", "lower"),
    "stats.record_done_many_us_per_req": ("us", "lower"),
    "stats.record_submit_us_per_req": ("us", "lower"),
    "stats.snapshot_ms": ("ms", "lower"),
    "server.serve_window_us_per_req": ("us", "lower"),
    "server.submit_hit_us_per_req": ("us", "lower"),
    "server.submit_miss_us_per_req": ("us", "lower"),
    "server.self_us_per_req": ("us", "lower"),
    "mp.execute_batch_us_per_req": ("us", "lower"),
    "mp.transport_us_per_req": ("us", "lower"),
    "mp.request_pickle_bytes_per_req": ("B", "lower"),
    "mp.reply_pickle_bytes_per_req": ("B", "lower"),
    "mp.start_s": ("s", "lower"),
    "mp.worker_restarts": ("count", "lower"),
    "shm.pack_artifact_s": ("s", "lower"),
    "shm.attach_view_s": ("s", "lower"),
    "artifact.save_s": ("s", "lower"),
    "artifact.load_mmap_s": ("s", "lower"),
    "artifact.bytes_per_key": ("B", "lower"),
    "state.export_s": ("s", "lower"),
    "state.from_state_s": ("s", "lower"),
    "driver.cpu_ms_per_kop": ("ms", "lower"),
    "driver.lat_p99_ms": ("ms", "lower"),
    "driver.lat_max_ms": ("ms", "lower"),
    "driver.samples": ("count", "higher"),
    "driver.seg_rate_iqr_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


class Ladder:
    """Sweeps seeded windows up a list of rungs, one span per call."""

    def __init__(self, tracer: measure.Tracer) -> None:
        self.tracer = tracer
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0.0] * REPEATS)
        self.units: dict[str, int] = defaultdict(int)
        self.repeat = 0
        self.window = 0
        self.root = 0         # id of the current window's ``ladder`` span
        self.checked = 0
        self.failed = 0

    def sweep(self, windows: Sequence[object]):
        """Yield every window ``REPEATS`` times over, each under a root
        ``ladder`` span that parents the rung spans recorded meanwhile."""
        for self.repeat in range(REPEATS):
            for self.window, item in enumerate(windows):
                start = time.perf_counter()
                self.root = self.tracer.record("ladder", start, start, None, self.window)
                yield item
                self.tracer.close(self.root, time.perf_counter())

    def call(self, name: str, units: int, fn: Callable, *args: object) -> Any:
        """Time one call into a layer as rung ``name`` covering ``units``."""
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.tracer.record(name, t0, t1, self.root, self.window)
        self.totals[name][self.repeat] += t1 - t0
        if self.repeat == 0:
            self.units[name] += units
        return out

    def check(self, results: list, expected: list) -> None:
        self.checked += len(expected)
        self.failed += workloads.count_bad_window(results, expected)

    def per_unit(self, name: str, scale: float = 1e6) -> float:
        """Median sweep time of rung ``name`` per unit (microseconds by default)."""
        return statistics.median(self.totals[name]) / self.units[name] * scale


def _by_shard(homes: list[int]) -> dict[int, list[int]]:
    """Row numbers of a routed window, grouped by home shard."""
    rows: dict[int, list[int]] = defaultdict(list)
    for i, shard in enumerate(homes):
        rows[shard].append(i)
    return rows


# -- one ladder per workload -------------------------------------------------

def ladder_lib_batch(inputs: SimpleNamespace, fixture: Fixture, lad: Ladder,
                     m: dict[str, float], seed: int) -> None:
    rmi, pgm, zm, flood = (fixture.indexes[k] for k in ("rmi", "pgm", "zm", "flood"))
    # Exact cost counters first, from one untimed pass over the seeded rounds.
    rmi.stats.reset_counters()
    pgm.stats.reset_counters()
    for q, _expected in inputs.pool:
        rmi.lookup_batch(q.rmi)
        for a, b in q.ranges:
            pgm.range_query(a, b)
    lookups = len(inputs.pool) * workloads.RMI_BATCH
    m["index.model_predictions_per_lookup"] = rmi.stats.model_predictions / lookups
    m["index.corrections_per_lookup"] = rmi.stats.corrections / lookups
    m["index.nodes_visited_per_lookup"] = rmi.stats.nodes_visited / lookups
    m["index.keys_scanned_per_range"] = (
        pgm.stats.keys_scanned / (len(inputs.pool) * workloads.PGM_RANGES))
    lo, hi = np.zeros(2), np.ones(2)
    for q, _expected in lad.sweep(inputs.pool):
        lad.call("onedim.rmi.lookup_batch", workloads.RMI_BATCH, rmi.lookup_batch, q.rmi)
        lad.call("onedim.pgm.lookup_batch", workloads.RMI_BATCH, pgm.lookup_batch, q.rmi)
        lad.call("onedim.pgm.range_query", workloads.PGM_RANGES,
                 lambda: [pgm.range_query(a, b) for a, b in q.ranges])
        lad.call("multidim.zm.point_query_batch", workloads.ZM_BATCH, zm.point_query_batch, q.zm)
        lad.call("multidim.flood.range_query_batch", workloads.FLOOD_BOXES,
                 flood.range_query_batch, q.lows, q.highs)
        lad.call("multidim.zm.knn_query", 1, zm.knn_query, q.knn, workloads.KNN_K)
        lad.call("curves.zencode_array", workloads.ZM_BATCH, zencode_array, q.zm, lo, hi, 16)
    m["onedim.rmi.lookup_batch_us_per_key"] = lad.per_unit("onedim.rmi.lookup_batch")
    m["onedim.pgm.lookup_batch_us_per_key"] = lad.per_unit("onedim.pgm.lookup_batch")
    m["onedim.pgm.range_query_us_per_call"] = lad.per_unit("onedim.pgm.range_query")
    m["multidim.zm.point_query_batch_us_per_point"] = lad.per_unit("multidim.zm.point_query_batch")
    m["multidim.flood.range_query_batch_us_per_box"] = lad.per_unit(
        "multidim.flood.range_query_batch")
    m["multidim.zm.knn_query_us_per_call"] = lad.per_unit("multidim.zm.knn_query")
    m["curves.zencode_array_ns_per_point"] = lad.per_unit("curves.zencode_array", 1e9)
    m["onedim.build_s"] = fixture.timings["onedim.build_s"]
    m["multidim.build_s"] = fixture.timings["multidim.build_s"]


def ladder_serve_read(inputs: SimpleNamespace, fixture: Fixture, lad: Ladder,
                      m: dict[str, float], seed: int) -> None:
    server = fixture.server
    assert server is not None
    store = server.store
    stats = ServerStats(store.num_shards)
    coalescer = Coalescer(store, stats)  # never started: flush() drains in this thread
    n = workloads.READ_WINDOW
    for requests, expected in lad.sweep(inputs.pools[0]):
        keys = [r.key for r in requests]
        lad.call("requests.construct", n,
                 lambda: [Request(op=Op.LOOKUP, key=k) for k in keys])
        rows = _by_shard(lad.call("sharding.route_home_batch", n, store.route_home_batch, requests))
        lad.call("sharding.route", n, lambda: [store.route(r) for r in requests])
        arrays = {s: np.asarray([keys[i] for i in idx]) for s, idx in rows.items()}

        def kernels() -> list:
            shards: Any = store.shards
            return [shards[s].lookup_batch(arr) for s, arr in arrays.items()]

        # One untimed pass first: whichever rung touched this window's keys
        # first would otherwise pay their cache misses for all the others.
        kernels()
        lad.call("sharding.kernel", n, kernels)
        runs = {s: [requests[i] for i in idx] for s, idx in rows.items()}
        lad.call("sharding.execute_batch", n, lambda: [
            store.execute_batch(s, Op.LOOKUP, run) for s, run in runs.items()])
        window = lad.call("coalescer.submit_window", n, coalescer.submit_window, requests)
        lad.call("coalescer.flush", n, coalescer.flush)
        lad.check(window.wait(), expected)
        lad.check(lad.call("server.serve_window", n, server.serve_window, requests), expected)
        latencies = [1e-4] * (n // store.num_shards)
        lad.call("stats.record_done_many", n, lambda: [
            stats.record_done_many(latencies) for _ in range(store.num_shards)])
        lad.call("stats.record_submit", n, lambda: [stats.record_submit(0, 1) for _ in range(n)])
    m["requests.construct_us_per_req"] = lad.per_unit("requests.construct")
    m["sharding.route_home_batch_us_per_req"] = lad.per_unit("sharding.route_home_batch")
    m["sharding.route_us_per_req"] = lad.per_unit("sharding.route")
    m["sharding.kernel_us_per_req"] = lad.per_unit("sharding.kernel")
    m["sharding.execute_batch_us_per_req"] = lad.per_unit("sharding.execute_batch")
    m["sharding.execute_batch_self_us_per_req"] = (
        m["sharding.execute_batch_us_per_req"] - m["sharding.kernel_us_per_req"])
    m["coalescer.submit_window_us_per_req"] = lad.per_unit("coalescer.submit_window")
    flush_rung = m["coalescer.submit_window_us_per_req"] + lad.per_unit("coalescer.flush")
    m["coalescer.flush_self_us_per_req"] = flush_rung - m["sharding.execute_batch_us_per_req"]
    m["server.serve_window_us_per_req"] = lad.per_unit("server.serve_window")
    m["server.self_us_per_req"] = m["server.serve_window_us_per_req"] - flush_rung
    m["stats.record_done_many_us_per_req"] = lad.per_unit("stats.record_done_many")
    m["stats.record_submit_us_per_req"] = lad.per_unit("stats.record_submit")
    m["stats.snapshot_ms"] = measure.median_of_repeats(server.stats, REPEATS) * 1e3
    m["sharding.build_s"] = fixture.timings["build_s"]


def ladder_serve_cached(inputs: SimpleNamespace, fixture: Fixture, lad: Ladder,
                        m: dict[str, float], seed: int) -> None:
    server = fixture.server
    assert server is not None
    store = server.store
    coalescer = Coalescer(store, ServerStats(store.num_shards))
    cache = ResultCache(capacity=workloads.CACHE_SIZE)
    n = workloads.CACHED_IN_FLIGHT
    windows = inputs.pools[0][:workloads.POOL_WINDOWS]
    # Distinct keys from the whole key set, far more than the cache holds
    # before any repeats: every submit of a cold window misses.
    cold = np.random.default_rng([seed, 6]).permutation(inputs.keys.size)
    cold = cold[:min(cold.size, REPEATS * len(windows) * n) // n * n]
    cold_windows = itertools.cycle(cold.reshape(-1, n))

    def submit_all(requests: list[Request]) -> list[Response]:
        futures = [server.submit(r) for r in requests]
        return [f.result() for f in futures]

    def futures_roundtrip(values: list[object]) -> None:
        for value in values:
            future: Future = Future()
            future.set_result(Response(value=value))
            future.result()

    for requests, expected in lad.sweep(windows):
        args = lad.call("requests.cache_args", n, lambda: [r.cache_args() for r in requests])
        cache_keys = [(a, (lad.window,), (lad.repeat,)) for a in args]
        lad.call("cache.get_miss", n, lambda: [cache.get(k) for k in cache_keys])
        lad.call("cache.put", n, lambda: [cache.put(k, 1) for k in cache_keys])
        lad.call("cache.get_hit", n, lambda: [cache.get(k) for k in cache_keys])
        futures = lad.call("coalescer.submit", n, lambda: [coalescer.submit(r) for r in requests])
        coalescer.flush()
        lad.check([f.result().value for f in futures], expected)
        lad.call("coalescer.future_resolve", n, futures_roundtrip, expected)
        submit_all(requests)  # fills the live cache for this window
        lad.check([r.value for r in lad.call("server.submit_hit", n, submit_all, requests)],
                  expected)
        rows = next(cold_windows)
        misses = [Request(op=Op.LOOKUP, key=float(inputs.keys[i])) for i in rows]
        lad.check([r.value for r in lad.call("server.submit_miss", n, submit_all, misses)],
                  rows.tolist())
    m["requests.cache_args_us_per_req"] = lad.per_unit("requests.cache_args")
    m["cache.get_hit_us"] = lad.per_unit("cache.get_hit")
    m["cache.get_miss_us"] = lad.per_unit("cache.get_miss")
    m["cache.put_us"] = lad.per_unit("cache.put")
    m["coalescer.submit_us_per_req"] = lad.per_unit("coalescer.submit")
    m["coalescer.future_resolve_us_per_req"] = lad.per_unit("coalescer.future_resolve")
    m["server.submit_hit_us_per_req"] = lad.per_unit("server.submit_hit")
    m["server.submit_miss_us_per_req"] = lad.per_unit("server.submit_miss")


def ladder_serve_rw(inputs: SimpleNamespace, fixture: Fixture, lad: Ladder,
                    m: dict[str, float], seed: int) -> None:
    # Writes go to a private index and a private store, so the live
    # server's state still matches the pool's expected answers afterwards.
    index = DynamicPGMIndex().build(inputs.keys)
    store = ShardedStore(DynamicPGMIndex, num_shards=4).build(inputs.keys)
    for requests, _expected in lad.sweep(inputs.pools[0]):
        inserts = [(r.key, r.value) for r in requests if r.op is Op.INSERT]
        ranges = [(r.low, r.high) for r in requests if r.op is Op.RANGE_1D]
        keys = np.asarray([k for k, _v in inserts])
        lad.call("onedim.dynamic_pgm.insert", len(inserts),
                 lambda: [index.insert(k, v) for k, v in inserts])
        lad.call("onedim.dynamic_pgm.lookup_batch", len(inserts), index.lookup_batch, keys)
        lad.call("onedim.dynamic_pgm.delete", len(inserts),
                 lambda: [index.delete(k) for k, _v in inserts])
        lad.call("sharding.insert", len(inserts),
                 lambda: [store.insert(k, v) for k, v in inserts])
        lad.call("sharding.delete", len(inserts),
                 lambda: [store.delete(k) for k, _v in inserts])
        lad.call("sharding.range_query_1d", len(ranges),
                 lambda: [store.range_query_1d(a, b) for a, b in ranges])
    m["onedim.dynamic_pgm.insert_us_per_op"] = lad.per_unit("onedim.dynamic_pgm.insert")
    m["onedim.dynamic_pgm.delete_us_per_op"] = lad.per_unit("onedim.dynamic_pgm.delete")
    m["onedim.dynamic_pgm.lookup_batch_us_per_key"] = lad.per_unit(
        "onedim.dynamic_pgm.lookup_batch")
    m["sharding.insert_us_per_op"] = lad.per_unit("sharding.insert")
    m["sharding.delete_us_per_op"] = lad.per_unit("sharding.delete")
    m["sharding.range_query_1d_us_per_call"] = lad.per_unit("sharding.range_query_1d")


def ladder_restore_mp(inputs: SimpleNamespace, fixture: Fixture, lad: Ladder,
                      m: dict[str, float], seed: int) -> None:
    snapshot: Path = inputs.snapshot
    shard_dirs = sorted(snapshot.glob("shard_*"))
    m["sharding.save_snapshot_s"] = fixture.timings["save_snapshot_s"]
    m["sharding.from_snapshot_s"] = measure.median_of_repeats(
        lambda: ShardedStore.from_snapshot(snapshot), REPEATS)
    m["artifact.load_mmap_s"] = measure.median_of_repeats(
        lambda: load_index_artifact(shard_dirs[0], mmap_mode="r"), REPEATS)
    m["artifact.bytes_per_key"] = sum(
        read_manifest(d)["total_bytes"] for d in shard_dirs) / inputs.points.shape[0]
    store = ShardedStore.from_snapshot(snapshot)
    index: Any = store.shards[0]
    m["state.export_s"] = measure.median_of_repeats(index.export_state, REPEATS)
    state = index.export_state()
    m["state.from_state_s"] = measure.median_of_repeats(
        lambda: ZMIndex.from_state(state), REPEATS)
    scratch = Path(tempfile.mkdtemp(prefix="artifact-", dir=snapshot.parent))
    try:
        m["artifact.save_s"] = measure.median_of_repeats(
            lambda: save_index_artifact(index, scratch / "index"), REPEATS)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    packs, attaches = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        manifest, segment = pack_artifact(shard_dirs[0], 0)
        t1 = time.perf_counter()
        try:
            view, mapping = attach_view(manifest)
            t2 = time.perf_counter()
            del view
            mapping.close()
        finally:
            release_segment(segment)
        packs.append(t1 - t0)
        attaches.append(t2 - t1)
    m["shm.pack_artifact_s"] = statistics.median(packs)
    m["shm.attach_view_s"] = statistics.median(attaches)

    starts = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        with ProcessShardExecutor(store, ServerStats(store.num_shards)):
            starts.append(time.perf_counter() - t0)
    m["mp.start_s"] = statistics.median(starts)
    n = workloads.READ_WINDOW
    request_bytes = reply_bytes = 0
    with ProcessShardExecutor(store, ServerStats(store.num_shards)) as executor:
        for requests, expected in lad.sweep(inputs.pools[0]):
            rows = _by_shard(
                lad.call("sharding.route_home_batch_md", n, store.route_home_batch, requests))
            runs = {s: [requests[i] for i in idx] for s, idx in rows.items()}
            lad.call("sharding.execute_batch_md", n, lambda: [
                store.execute_batch(s, Op.POINT_QUERY, run) for s, run in runs.items()])
            answers = lad.call("mp.execute_batch", n, lambda: {
                s: executor.execute_batch(s, Op.POINT_QUERY, run) for s, run in runs.items()})
            merged: list[object] = [None] * n
            for s, idx in rows.items():
                for i, value in zip(idx, answers[s]):
                    merged[i] = value
            lad.check(merged, expected)
            if lad.repeat == 0:
                # The same messages ProcessShardExecutor puts on the pipe.
                for s, run in runs.items():
                    request_bytes += len(pickle.dumps(
                        ("batch", Op.POINT_QUERY, [r.point for r in run])))
                    reply_bytes += len(pickle.dumps(("ok", answers[s])))
    sent = len(inputs.pools[0]) * n
    m["sharding.route_home_batch_md_us_per_req"] = lad.per_unit("sharding.route_home_batch_md")
    m["mp.execute_batch_us_per_req"] = lad.per_unit("mp.execute_batch")
    m["mp.transport_us_per_req"] = (
        m["mp.execute_batch_us_per_req"] - lad.per_unit("sharding.execute_batch_md"))
    m["mp.request_pickle_bytes_per_req"] = request_bytes / sent
    m["mp.reply_pickle_bytes_per_req"] = reply_bytes / sent


LADDERS = {
    "lib_batch": ladder_lib_batch, "serve_read": ladder_serve_read,
    "serve_cached": ladder_serve_cached, "serve_rw": ladder_serve_rw,
    "restore_mp": ladder_restore_mp,
}


# -- in-situ: the closed loop, counters read from the live server -------------

def _server_counters(fixture: Fixture) -> dict[str, float]:
    if fixture.server is None:
        return {}
    snap = fixture.server.stats()
    out = {k: float(snap[k]) for k in
           ("requests", "shed", "batches", "batched_requests", "worker_restarts")}
    out.update({f"cache_{k}": float(v) for k, v in snap["cache"].items()})
    return out


def _home_serve_read(moved: dict[str, float], result: dict[str, Any], m: dict[str, float]) -> None:
    m["coalescer.avg_batch"] = moved["batched_requests"] / moved["batches"]
    m["coalescer.batches_per_window"] = (
        moved["batches"] / (moved["requests"] / workloads.READ_WINDOW))
    m["coalescer.shed_share"] = moved["shed"] / moved["requests"]
    # In-situ window latency minus what the same window costs one thread
    # on the unstarted-coalescer rung: hand-off, fill wait, GIL.
    rung_us = m["coalescer.flush_self_us_per_req"] + m["sharding.execute_batch_us_per_req"]
    m["coalescer.wait_us_per_window"] = (
        statistics.median(result["lat_ms"]) * 1e3 - rung_us * workloads.READ_WINDOW)


def _home_serve_cached(moved: dict[str, float], result: dict[str, Any],
                       m: dict[str, float]) -> None:
    probes = moved["cache_hits"] + moved["cache_misses"]
    m["cache.hit_share"] = moved["cache_hits"] / probes
    m["cache.evictions_per_kop"] = moved["cache_evictions"] / probes * 1e3


def _home_restore_mp(moved: dict[str, float], result: dict[str, Any], m: dict[str, float]) -> None:
    m["mp.worker_restarts"] = moved["worker_restarts"]


#: The counters each workload is home to, read off its live server.
HOME_COUNTERS = {"serve_read": _home_serve_read, "serve_cached": _home_serve_cached,
                 "restore_mp": _home_restore_mp}


def in_situ(name: str, fixture: Fixture, warmup_s: float, seconds: float,
            m: dict[str, float]) -> dict[str, Any]:
    """One untraced closed-loop pass; fills the counters ``name`` is home to."""
    before = _server_counters(fixture)
    result = measure.run_clients(fixture.clients, warmup_s, seconds, None)
    after = _server_counters(fixture)
    if name in HOME_COUNTERS:
        HOME_COUNTERS[name]({k: after[k] - before[k] for k in after}, result, m)
    return result


def driver_metrics(untraced: dict[str, Any], traced: dict[str, Any]) -> dict[str, float]:
    """The reading aids: global tails the segment medians hide, and overhead."""
    lat = np.asarray(untraced["lat_ms"])
    rates = untraced["seg_rate"]
    q1, _q2, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else (rates[0],) * 3
    rate = statistics.median(rates)
    return {
        "driver.cpu_ms_per_kop": float(untraced["cpu_s"]) / float(untraced["driven_ops"]) * 1e6,
        "driver.lat_p99_ms": float(np.percentile(lat, 99)),
        "driver.lat_max_ms": float(lat.max()),
        "driver.samples": float(lat.size),
        "driver.seg_rate_iqr_share": (q3 - q1) / rate,
        "trace.overhead_share": 1.0 - statistics.median(traced["seg_rate"]) / rate,
    }


def climb(names: Sequence[str], seed: int, seconds: float, scale: workloads.Scale,
          out_dir: Path) -> tuple[dict[str, float], dict[str, dict[str, float]], dict[str, Any]]:
    """All five ladders; ``driver.*`` for each workload in ``names``.

    Returns ``(layer metrics, driver metrics per asked workload, result)``
    where result counts attempted / failed operations, client errors and
    leaked segments over everything this run drove, in the same shape
    an untraced pass reports them.
    """
    m: dict[str, float] = {}
    drivers: dict[str, dict[str, float]] = {}
    env = measure.environment()
    attempted = failed = 0
    errors: list[str] = []
    leaked: list[str] = []
    seg_samples: list[int] = []
    setups: list[float] = []
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        tracer = measure.Tracer()
        inputs = workload.generate(seed, scale)
        fixture = None
        with measure.one_cpu(workload.one_cpu):
            try:
                workload.prepare(inputs, out_dir)
                t0 = time.perf_counter()
                fixture = workload.setup(inputs)
                setups.append(time.perf_counter() - t0)
                lad = Ladder(tracer)
                LADDERS[name](inputs, fixture, lad, m, seed)
                warmup_s = workload.warmup_s * scale.warmup
                asked = name in names
                passes = [in_situ(name, fixture, warmup_s,
                                  seconds / 2 if asked else SHORT_PASS_S, m)]
                if asked:
                    passes.append(
                        measure.run_clients(fixture.clients, warmup_s, seconds / 2, tracer))
                    drivers[name] = driver_metrics(*passes)
                    seg_samples += passes[0]["seg_samples"]
                attempted += lad.checked + sum(p["attempted"] for p in passes)
                failed += lad.failed + sum(p["failed"] for p in passes)
                errors += [e for p in passes for e in p["errors"]]
            finally:
                if fixture is not None:
                    fixture.close()
                leaked += workload.cleanup(inputs)
                tracer.write(out_dir / f"trace-{name}.jsonl")
    env["loadavg_end"] = measure.environment()["loadavg"]
    return m, drivers, {
        "attempted": attempted, "failed": failed, "errors": errors, "leaked_segments": leaked,
        "seg_samples": seg_samples, "setups_s": setups, "environment": env,
    }
