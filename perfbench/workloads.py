"""The five frozen closed-loop workloads.

Every constant that shapes the load lives in this file and nothing
adapts at run time to how fast the code under test is.  A workload has
three phases: ``generate`` builds all inputs *and their expected
answers* from the seed (untimed), ``prepare`` does untimed one-off work
(only ``restore_mp`` has any: writing the snapshot it restores from),
and ``setup`` is the timed build-or-restore that ends with the first
verified answer and leaves a :class:`Fixture` holding one
:class:`~perfbench.measure.Client` per client thread.

Closed loop throughout: ``IndexServer`` is an in-process library whose
callers block on ``serve_window`` / ``Future.result()``, so each client
issues its next call only after the previous one returned.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from perfbench.measure import Client
from repro.core.interfaces import IndexStats
from repro.multidim.flood import FloodIndex
from repro.multidim.zm_index import ZMIndex
from repro.onedim.pgm import DynamicPGMIndex, PGMIndex
from repro.onedim.rmi import RMIIndex
from repro.serve.requests import Op, Request
from repro.serve.server import IndexServer
from repro.serve.shm import list_repro_segments


@dataclass(frozen=True)
class Scale:
    """Data sizes: the frozen full scale, or ``--smoke`` for the tests."""

    n_1d: int     # rmi / pgm keys (lib_batch, serve_read, serve_cached)
    n_2d: int     # zm-index / flood points (lib_batch, restore_mp)
    n_rw: int     # dynamic-pgm keys (serve_rw)
    warmup: float  # multiplier on every workload's warm-up seconds


FULL = Scale(n_1d=1_000_000, n_2d=500_000, n_rw=200_000, warmup=1.0)
SMOKE = Scale(n_1d=20_000, n_2d=20_000, n_rw=20_000, warmup=0.25)

DATA_SEED = 20250929      # the data sets are frozen; --seed draws the request stream
KEY_DOMAIN = 1e9          # 1-d keys are uniform floats in [0, KEY_DOMAIN)
ABSENT_EVERY = 16         # 1 point query in 16 asks for a key that is not stored
POOL_WINDOWS = 64         # windows (or rounds) per client pool, cycled
VERIFY_EVERY = 8          # ranges / kNN are oracle-checked on every 8th window

# lib_batch: one round = four roughly equal quarters (~1.7 ms each at full
# scale), short enough that even a slow second holds 100 rounds
RMI_BATCH = 2304
PGM_RANGES = 30
PGM_RANGE_KEYS = 100
ZM_BATCH = 1536
FLOOD_BOXES = 4
FLOOD_SELECTIVITY = 1e-4
KNN_K = 10

# serve_read / restore_mp
READ_WINDOW = 512
MP_SHARDS = 2

# serve_cached
CACHE_SIZE = 4096
CACHED_IN_FLIGHT = 128    # futures outstanding before the client collects them
CACHED_POOL_WINDOWS = 512  # 65k requests, so distinct keys exceed the cache
ZIPF_A = 1.2

# serve_rw: one window = 30 lookups + 16 inserts + 16 deletes + 2 ranges
RW_LOOKUPS_BASE = 12      # built keys (2 of them absent)
RW_LOOKUPS_LIVE = 12      # keys this client inserted 1..7 windows ago
RW_LOOKUPS_GONE = 6       # keys this client deleted again (inserted 9..16 ago)
RW_INSERTS = 16
RW_DELETE_LAG = 8         # window w deletes what window w-8 inserted
RW_RANGES = 2
RW_RANGE_KEYS = 50
RW_VALUE_BASE = 10**9     # inserted values, disjoint from the built ranks


class _Any:
    """Stands in for an answer this window does not verify (compares equal)."""

    def __eq__(self, other: object) -> bool:
        return True

    __hash__ = None


ANY = _Any()


@dataclass
class Fixture:
    """What one timed set-up leaves behind, and how to tear it down."""

    clients: list[Client]
    keys: int
    index_stats: Callable[[], IndexStats]
    close: Callable[[], None]
    server: IndexServer | None = None
    indexes: dict[str, Any] = field(default_factory=dict)
    #: per-layer build times the set-up measured on its way (seconds)
    timings: dict[str, float] = field(default_factory=dict)

    def index_bytes_per_key(self) -> float:
        return self.index_stats().size_bytes / self.keys


# -- seeded input helpers ----------------------------------------------------

def _keys_1d(n: int) -> np.ndarray:
    """The frozen 1-d data set: ``n`` sorted distinct uniform keys.

    A key's stored value is its rank.  The data does not depend on
    ``--seed``, so ``index_bytes_per_key`` is exact and a timing never
    moves because a seed happened to give the index one segment more.
    """
    return np.unique(np.random.default_rng([DATA_SEED, 1]).uniform(0.0, KEY_DOMAIN, n))


def _points_2d(n: int) -> np.ndarray:
    """The frozen 2-d data set: ``n`` uniform points; value = row id."""
    return np.random.default_rng([DATA_SEED, 2]).uniform(0.0, 1.0, (n, 2))


def _absent_mask(rng: np.random.Generator, count: int) -> np.ndarray:
    mask = np.zeros(count, dtype=bool)
    mask[rng.choice(count, count // ABSENT_EVERY, replace=False)] = True
    return mask


def expected_ranks(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Global-rank oracle: the rank of each stored query key, else ``None``."""
    pos = np.searchsorted(keys, queries)
    hit = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == queries)
    out = pos.astype(object)
    out[~hit] = None
    return out


def _lookup_queries(rng: np.random.Generator, keys: np.ndarray,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` query keys (1 in 16 between two stored keys) and their answers."""
    idx = rng.integers(0, keys.size - 1, count)
    queries = keys[idx].copy()
    absent = _absent_mask(rng, count)
    queries[absent] = (keys[idx[absent]] + keys[idx[absent] + 1]) / 2.0
    return queries, expected_ranks(keys, queries)


def _point_queries(rng: np.random.Generator, points: np.ndarray,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` query points (1 in 16 fresh, so absent) and their row ids."""
    idx = rng.integers(0, points.shape[0], count)
    queries = points[idx].copy()
    absent = _absent_mask(rng, count)
    queries[absent] = rng.uniform(0.0, 1.0, (int(absent.sum()), points.shape[1]))
    expected = idx.astype(object)
    expected[absent] = None
    return queries, expected


def brute_range_1d(keys: np.ndarray, low: float, high: float) -> list[tuple[float, int]]:
    """Brute-force 1-d range oracle over the built keys (value = rank)."""
    rows = np.flatnonzero((keys >= low) & (keys <= high))
    return [(float(keys[i]), int(i)) for i in rows]


def brute_range_2d(points: np.ndarray, low: np.ndarray, high: np.ndarray) -> list[int]:
    """Brute-force box oracle: sorted row ids of the points inside."""
    inside = np.all(points >= low, axis=1) & np.all(points <= high, axis=1)
    return np.flatnonzero(inside).tolist()


def brute_knn(points: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """Brute-force kNN oracle: row ids of the ``k`` nearest, nearest first."""
    dist = np.linalg.norm(points - query, axis=1)
    return np.argsort(dist, kind="stable")[:k].tolist()


def count_bad_window(results: object, expected: object) -> int:
    """Wrong answers in one served window (list equality is the fast path)."""
    if results == expected:
        return 0
    results, expected = list(results), list(expected)
    wrong = sum(1 for r, e in zip(results, expected) if not r == e)
    return wrong + abs(len(results) - len(expected))


def _verify_first(fixture: Fixture) -> Fixture:
    """The timed set-up ends with one verified answer from client 0."""
    client = fixture.clients[0]
    client.step()
    if client.errors or client.samples[-1][2]:
        fixture.close()
        raise RuntimeError(
            "first answer after set-up was wrong: "
            + (client.errors[-1] if client.errors else f"{client.samples[-1][2]} bad operations")
        )
    client.samples.clear()
    return fixture


def _lookup_pool(rng: np.random.Generator, keys: np.ndarray, windows: int,
                 size: int) -> list[tuple[list[Request], list[object]]]:
    pool = []
    for _ in range(windows):
        queries, expected = _lookup_queries(rng, keys, size)
        pool.append(([Request(op=Op.LOOKUP, key=float(q)) for q in queries],
                     expected.tolist()))
    return pool


def _server_fixture(server: IndexServer, clients: list[Client], keys: int,
                    **timings: float) -> Fixture:
    return Fixture(clients=clients, keys=keys, index_stats=server.store.stats,
                   close=server.close, server=server, timings=timings)


def _timed(fn: Callable[[], object]) -> tuple[object, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# -- the workloads -------------------------------------------------------------

class Workload:
    """One frozen workload; subclasses fill in the three phases."""

    name: str
    why: str
    clients = 1
    warmup_s = 1.0        # driven but not measured, before the first segment
    setup_repeats = 3     # timed set-ups per run; setup_s is their median
    one_cpu = True        # set up and driven under measure.one_cpu (see there)

    def generate(self, seed: int, scale: Scale) -> SimpleNamespace:
        """All inputs and their expected answers, from the seed (untimed)."""
        raise NotImplementedError

    def prepare(self, inputs: SimpleNamespace, workdir: Path) -> None:
        """Untimed one-off work before the first set-up."""

    def setup(self, inputs: SimpleNamespace) -> Fixture:
        """The timed build or restore, up to the first verified answer."""
        raise NotImplementedError

    def cleanup(self, inputs: SimpleNamespace) -> list[str]:
        """Remove what ``prepare`` left; returns leaked shared-memory segments."""
        return []


class LibBatch(Workload):
    name = "lib_batch"
    why = ("Kernels only, no repro.serve: the survey's point/range/kNN mix over rmi, pgm, "
           "zm-index and flood; the bypass workload for every serving change.")

    def generate(self, seed: int, scale: Scale) -> SimpleNamespace:
        rng = np.random.default_rng([seed, 1])
        keys = _keys_1d(scale.n_1d)
        points = _points_2d(scale.n_2d)
        side = FLOOD_SELECTIVITY ** 0.5
        pool = []
        for w in range(POOL_WINDOWS):
            rmi_q, rmi_exp = _lookup_queries(rng, keys, RMI_BATCH)
            starts = rng.integers(0, keys.size - PGM_RANGE_KEYS, PGM_RANGES)
            ranges = [(float(keys[s]), float(keys[s + PGM_RANGE_KEYS - 1])) for s in starts]
            zm_q, zm_exp = _point_queries(rng, points, ZM_BATCH)
            lows = rng.uniform(0.0, 1.0 - side, (FLOOD_BOXES, 2))
            highs = lows + side
            knn_q = rng.uniform(0.0, 1.0, 2)
            verify = w % VERIFY_EVERY == 0
            expected = SimpleNamespace(
                rmi=rmi_exp, zm=zm_exp,
                ranges=[brute_range_1d(keys, lo, hi) for lo, hi in ranges] if verify else None,
                boxes=[brute_range_2d(points, lo, hi) for lo, hi in zip(lows, highs)]
                if verify else None,
                knn=brute_knn(points, knn_q, KNN_K) if verify else None,
            )
            pool.append((SimpleNamespace(rmi=rmi_q, ranges=ranges, zm=zm_q, lows=lows,
                                         highs=highs, knn=knn_q), expected))
        return SimpleNamespace(keys=keys, points=points, pool=pool)

    def setup(self, inputs: SimpleNamespace) -> Fixture:
        (rmi, pgm), onedim_s = _timed(lambda: (RMIIndex().build(inputs.keys),
                                               PGMIndex().build(inputs.keys)))
        (zm, flood), multidim_s = _timed(lambda: (ZMIndex().build(inputs.points),
                                                  FloodIndex().build(inputs.points)))

        def one_round(q: SimpleNamespace) -> tuple:
            return (rmi.lookup_batch(q.rmi),
                    [pgm.range_query(lo, hi) for lo, hi in q.ranges],
                    zm.point_query_batch(q.zm),
                    flood.range_query_batch(q.lows, q.highs),
                    zm.knn_query(q.knn, KNN_K))

        indexes = {"rmi": rmi, "pgm": pgm, "zm": zm, "flood": flood}
        ops = RMI_BATCH + PGM_RANGES + ZM_BATCH + FLOOD_BOXES + 1

        def merged_stats() -> IndexStats:
            out = IndexStats()
            for index in indexes.values():
                out = out.merge(index.stats)
            return out

        return _verify_first(Fixture(
            clients=[Client(one_round, inputs.pool, ops, self.count_bad)],
            keys=2 * inputs.keys.size + 2 * inputs.points.shape[0],
            index_stats=merged_stats, close=lambda: None, indexes=indexes,
            timings={"onedim.build_s": onedim_s, "multidim.build_s": multidim_s}))

    @staticmethod
    def count_bad(result: tuple, expected: SimpleNamespace) -> int:
        rmi_res, range_res, zm_res, box_res, knn_res = result
        bad = int(np.count_nonzero(rmi_res != expected.rmi))
        bad += int(np.count_nonzero(zm_res != expected.zm))
        if expected.ranges is not None:
            bad += sum(1 for r, e in zip(range_res, expected.ranges) if r != e)
            bad += sum(1 for r, e in zip(box_res, expected.boxes)
                       if sorted(v for _p, v in r) != e)
            bad += [v for _p, v in knn_res] != expected.knn
        return bad


class ServeRead(Workload):
    name = "serve_read"
    setup_repeats = 5
    why = ("IndexServer(rmi, 4 shards), cache off, 2 clients x serve_window(512 lookups): routing, "
           "queueing, batch assembly and result scatter dominate, the kernel is <=10%.")
    clients = 2

    def generate(self, seed: int, scale: Scale) -> SimpleNamespace:
        rng = np.random.default_rng([seed, 2])
        keys = _keys_1d(scale.n_1d)
        pools = [_lookup_pool(rng, keys, POOL_WINDOWS, READ_WINDOW) for _ in range(self.clients)]
        return SimpleNamespace(keys=keys, pools=pools)

    def setup(self, inputs: SimpleNamespace) -> Fixture:
        server, build_s = _timed(lambda: IndexServer(RMIIndex, num_shards=4).build(inputs.keys))
        clients = [Client(server.serve_window, pool, READ_WINDOW, count_bad_window)
                   for pool in inputs.pools]
        return _verify_first(_server_fixture(server, clients, inputs.keys.size, build_s=build_s))


class ServeCached(Workload):
    name = "serve_cached"
    warmup_s = 3.0
    why = ("IndexServer(pgm, cache 4096), 1 client, per-request submit + Future.result(), "
           "Zipf(1.2): the Future/Response/cache-key path and the small-batch miss path do "
           "the work.")

    def generate(self, seed: int, scale: Scale) -> SimpleNamespace:
        rng = np.random.default_rng([seed, 3])
        keys = _keys_1d(scale.n_1d)
        hot_order = rng.permutation(keys.size)
        total = CACHED_POOL_WINDOWS * CACHED_IN_FLIGHT
        ranks = rng.zipf(ZIPF_A, 2 * total)
        ranks = ranks[ranks <= keys.size][:total]
        if ranks.size < total:
            raise RuntimeError("zipf sample too small; lower ZIPF_A's truncation loss")
        idx = hot_order[ranks - 1]
        pool = []
        for w in range(CACHED_POOL_WINDOWS):
            rows = idx[w * CACHED_IN_FLIGHT:(w + 1) * CACHED_IN_FLIGHT]
            pool.append(([Request(op=Op.LOOKUP, key=float(keys[i])) for i in rows],
                         rows.tolist()))
        return SimpleNamespace(keys=keys, pools=[pool])

    def setup(self, inputs: SimpleNamespace) -> Fixture:
        server, build_s = _timed(lambda: IndexServer(
            PGMIndex, num_shards=4, cache_size=CACHE_SIZE).build(inputs.keys))
        submit = server.submit

        def pipelined(requests: list[Request]) -> list[object]:
            futures = [submit(r) for r in requests]
            return [f.result() for f in futures]

        clients = [Client(pipelined, inputs.pools[0], CACHED_IN_FLIGHT, self.count_bad)]
        return _verify_first(_server_fixture(server, clients, inputs.keys.size, build_s=build_s))

    @staticmethod
    def count_bad(responses: list, expected: list[object]) -> int:
        # No absent keys here, so a shed or failed response (value None)
        # can never pass for a right answer.
        return count_bad_window([r.value for r in responses], expected)


class ServeRW(Workload):
    name = "serve_rw"
    setup_repeats = 7
    why = ("IndexServer(dynamic-pgm), 2 clients x serve_window(30 lookups, 16 inserts, 16 deletes, "
           "2 ranges): writes break coalescable runs and run scalar under shard locks.")
    clients = 2

    def generate(self, seed: int, scale: Scale) -> SimpleNamespace:
        rng = np.random.default_rng([seed, 4])
        keys = _keys_1d(scale.n_rw)
        per_client = POOL_WINDOWS * RW_INSERTS
        gaps = rng.choice(keys.size - 1, self.clients * per_client, replace=False)
        fresh = (keys[gaps] + keys[gaps + 1]) / 2.0
        if np.any(fresh <= keys[gaps]) or np.any(fresh >= keys[gaps + 1]):
            raise RuntimeError("insert keys must fall strictly between built keys")
        fresh_sorted = np.sort(fresh)
        pools, prefill = [], []
        for c in range(self.clients):
            mine = fresh[c * per_client:(c + 1) * per_client].reshape(POOL_WINDOWS, RW_INSERTS)
            value_of = {float(k): RW_VALUE_BASE + c * per_client + i
                        for i, k in enumerate(mine.ravel())}
            prefill += [Request(op=Op.INSERT, key=float(k), value=value_of[float(k)])
                        for k in mine[POOL_WINDOWS - RW_DELETE_LAG:].ravel()]
            pool = []
            for w in range(POOL_WINDOWS):
                pairs: list[tuple[Request, object]] = []
                base_q, base_exp = _lookup_queries(rng, keys, RW_LOOKUPS_BASE)
                pairs += [(Request(op=Op.LOOKUP, key=float(q)), e)
                          for q, e in zip(base_q, base_exp.tolist())]
                live = mine[(w - rng.integers(1, RW_DELETE_LAG, RW_LOOKUPS_LIVE)) % POOL_WINDOWS,
                            rng.integers(0, RW_INSERTS, RW_LOOKUPS_LIVE)]
                pairs += [(Request(op=Op.LOOKUP, key=float(k)), value_of[float(k)]) for k in live]
                gone = mine[(w - rng.integers(RW_DELETE_LAG + 1, 2 * RW_DELETE_LAG + 1,
                                              RW_LOOKUPS_GONE)) % POOL_WINDOWS,
                            rng.integers(0, RW_INSERTS, RW_LOOKUPS_GONE)]
                pairs += [(Request(op=Op.LOOKUP, key=float(k)), None) for k in gone]
                pairs += [(Request(op=Op.INSERT, key=float(k), value=value_of[float(k)]), None)
                          for k in mine[w]]
                pairs += [(Request(op=Op.DELETE, key=float(k)), True)
                          for k in mine[(w - RW_DELETE_LAG) % POOL_WINDOWS]]
                verify = w % VERIFY_EVERY == 0
                for lo, hi in self._write_free_ranges(rng, keys, fresh_sorted):
                    pairs.append((Request(op=Op.RANGE_1D, low=lo, high=hi),
                                  brute_range_1d(keys, lo, hi) if verify else ANY))
                order = rng.permutation(len(pairs))
                pool.append(([pairs[i][0] for i in order], [pairs[i][1] for i in order]))
            pools.append(pool)
        return SimpleNamespace(keys=keys, pools=pools, prefill=prefill)

    @staticmethod
    def _write_free_ranges(rng: np.random.Generator, keys: np.ndarray,
                           fresh_sorted: np.ndarray) -> list[tuple[float, float]]:
        """Ranges of ~50 built keys that no client ever inserts into.

        Two clients write concurrently, so a range that covered an
        insert key would have no single right answer; these do.
        """
        out: list[tuple[float, float]] = []
        while len(out) < RW_RANGES:
            start = int(rng.integers(0, keys.size - RW_RANGE_KEYS))
            lo, hi = float(keys[start]), float(keys[start + RW_RANGE_KEYS - 1])
            if np.searchsorted(fresh_sorted, lo) == np.searchsorted(fresh_sorted, hi):
                out.append((lo, hi))
        return out

    def setup(self, inputs: SimpleNamespace) -> Fixture:
        server, build_s = _timed(lambda: IndexServer(
            DynamicPGMIndex, num_shards=4).build(inputs.keys))
        # The pool is cyclic: window w deletes what window w-8 inserted, so
        # the last 8 windows' inserts must already be live at window 0.
        server.serve_window(inputs.prefill)
        size = len(inputs.pools[0][0][0])
        clients = [Client(server.serve_window, pool, size, count_bad_window)
                   for pool in inputs.pools]
        return _verify_first(_server_fixture(server, clients, inputs.keys.size, build_s=build_s))


class RestoreMP(Workload):
    name = "restore_mp"
    setup_repeats = 7
    one_cpu = False       # parent and two worker processes: the multi-core workload
    why = ("from_snapshot(backend='process') of a 2-shard zm-index, 2 clients x serve_window(512 "
           "point queries): artifact, shm, worker spawn, pickle+pipe transport and Morton routing.")
    clients = 2

    def generate(self, seed: int, scale: Scale) -> SimpleNamespace:
        rng = np.random.default_rng([seed, 5])
        points = _points_2d(scale.n_2d)
        pools = []
        for _ in range(self.clients):
            pool = []
            for _w in range(POOL_WINDOWS):
                queries, expected = _point_queries(rng, points, READ_WINDOW)
                pool.append(([Request(op=Op.POINT_QUERY, point=(float(x), float(y)))
                              for x, y in queries], expected.tolist()))
            pools.append(pool)
        return SimpleNamespace(points=points, pools=pools, snapshot=None, save_snapshot_s=0.0)

    def prepare(self, inputs: SimpleNamespace, workdir: Path) -> None:
        inputs.snapshot = Path(tempfile.mkdtemp(prefix="snapshot-", dir=workdir))
        with IndexServer(ZMIndex, num_shards=MP_SHARDS).build(inputs.points) as server:
            _, inputs.save_snapshot_s = _timed(lambda: server.save_snapshot(inputs.snapshot))

    def setup(self, inputs: SimpleNamespace) -> Fixture:
        server = IndexServer.from_snapshot(inputs.snapshot, backend="process")
        clients = [Client(server.serve_window, pool, READ_WINDOW, count_bad_window)
                   for pool in inputs.pools]
        return _verify_first(_server_fixture(server, clients, inputs.points.shape[0],
                                             save_snapshot_s=inputs.save_snapshot_s))

    def cleanup(self, inputs: SimpleNamespace) -> list[str]:
        if inputs.snapshot is not None:
            shutil.rmtree(inputs.snapshot, ignore_errors=True)
        return list_repro_segments()


WORKLOADS = {w.name: w for w in (LibBatch(), ServeRead(), ServeCached(), ServeRW(), RestoreMP())}
