"""E19 — serving throughput and tail latency: coalesced vs. one-at-a-time.

E17/E18 measured the raw kernel gap between per-query loops and
vectorized batches.  E19 asks the systems question that motivates the
serving layer: when *concurrent clients* submit scalar requests, does
request coalescing recover the batch-kernel throughput, and what does it
cost in tail latency?  Both arms run through the identical
:class:`repro.serve.server.IndexServer` machinery — same shards, same
queues, same workers.  The coalesced arm submits pipelined windows and
drains up to ``max_batch`` requests per worker wakeup; the baseline arm
submits and executes one request at a time (``max_batch=1``), which is
exactly how a scalar-only server behaves.  Results for
1-d and multi-d learned indexes (plus classical controls) across shard
counts land in ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.batch import _environment_metadata
from repro.bench.runner import MULTI_DIM_FACTORIES, ONE_DIM_FACTORIES
from repro.data import load_1d, load_nd
from repro.serve.server import IndexServer
from repro.serve.workload import WORKLOADS, make_workload, run_closed_loop

__all__ = ["run_e19", "DEFAULT_E19_ONE_DIM", "DEFAULT_E19_MULTI_DIM"]

#: 1-d serving contenders: learned indexes plus the sorted-array control.
DEFAULT_E19_ONE_DIM = ("rmi", "pgm", "alex", "binary-search")

#: Multi-d serving contenders: learned indexes plus the KD-tree control.
DEFAULT_E19_MULTI_DIM = ("zm-index", "flood", "grid", "kd-tree")


def _parse_names(value, default: tuple[str, ...], registry: dict) -> list[str]:
    """Normalize an index-name selection (sequence or comma string).

    ``None`` selects the defaults; an explicit empty value (``""`` or
    ``[]``) selects no contenders for that space.
    """
    if value is None:
        names = list(default)
    elif isinstance(value, str):
        names = [name for name in value.split(",") if name]
    else:
        names = list(value)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(f"unknown indexes {unknown!r}; have {sorted(registry)}")
    return names


def _serve_once(factory, data, requests, *, num_shards: int, max_batch: int,
                capacity: int, cache_size: int, clients: int, pipeline: int,
                batch_submit: bool) -> dict:
    """Build a server, drive the workload, return driver + server stats."""
    t0 = time.perf_counter()
    server = IndexServer(
        factory, num_shards=num_shards, max_batch=max_batch,
        capacity=capacity, cache_size=cache_size,
    ).build(data)
    build_s = time.perf_counter() - t0
    try:
        driven = run_closed_loop(server, requests, clients=clients,
                                 pipeline=pipeline, batch_submit=batch_submit)
        stats = server.stats()
    finally:
        server.close()
    latency = stats["latency"]
    return {
        "build_s": build_s,
        "ops_per_s": driven["ops_per_s"],
        "completed": driven["completed"],
        "shed": driven["shed"],
        "avg_batch": stats["avg_batch"],
        "cache_hits": stats["cache_hits"],
        "p50_us": latency["p50_us"],  # type: ignore[index]
        "p95_us": latency["p95_us"],  # type: ignore[index]
        "p99_us": latency["p99_us"],  # type: ignore[index]
    }


def run_e19(n: int = 100000, requests: int = 20000, dims: int = 2,
            dataset: str = "uniform", workload: str = "zipfian",
            shards=(1, 4), clients: int = 8, pipeline: int = 64,
            max_batch: int = 512, capacity: int = 1 << 20, cache_size: int = 0,
            indexes=None, indexes_md=None, seed: int = 1,
            out: str | None = "BENCH_serve.json",
            smoke: bool = False) -> list[dict]:
    """E19: serving throughput/tail latency, coalesced vs. one-at-a-time.

    Args:
        n: keys (1-d) / points (multi-d) per store.
        requests: workload length per measurement arm.
        dims: dimensionality of the multi-d stores.
        dataset: dataset name for both spaces (``load_1d`` / ``load_nd``).
        workload: generator name from :data:`repro.serve.workload.WORKLOADS`
            (default read-only ``zipfian``, safe for immutable indexes).
        shards: shard counts to sweep (sequence or comma string).
        clients: concurrent closed-loop client threads.
        pipeline: requests each client keeps in flight.
        max_batch: coalescing window of the coalesced arm (the baseline
            arm always runs ``max_batch=1``).
        capacity: per-shard admission queue bound (high by default so
            E19 measures latency rather than shedding).
        cache_size: result-cache entries (0 keeps the cache out of the
            throughput story; the zipfian workload would otherwise let
            the cache answer most of the hot keys).
        indexes / indexes_md: 1-d / multi-d contender names (sequence or
            comma string); empty string selects none for that space.
        seed: RNG seed for data and workload.
        out: JSON artifact path, or ``None``/"" to skip writing.
        smoke: shrink to a seconds-scale CI configuration.

    Returns:
        One row per (space, index, shard count) with both arms' numbers.
    """
    if smoke:
        n = min(n, 4000)
        requests = min(requests, 2500)
        shards = (2,)
        clients = min(clients, 4)
        pipeline = min(pipeline, 32)
        max_batch = min(max_batch, 256)
    if isinstance(shards, str):
        shards = [int(s) for s in shards.split(",") if s]
    shard_counts = [int(s) for s in shards]
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    names_1d = _parse_names(indexes, DEFAULT_E19_ONE_DIM, ONE_DIM_FACTORIES)
    names_md = _parse_names(indexes_md, DEFAULT_E19_MULTI_DIM, MULTI_DIM_FACTORIES)

    keys = load_1d(dataset, n, seed=seed)
    points = load_nd(dataset, n, dims=dims, seed=seed)
    reqs_1d = make_workload(workload, keys, requests, seed=seed + 1)
    reqs_md = make_workload(workload, points, requests, seed=seed + 1, multi_dim=True)

    spaces = (
        [("1d", name, ONE_DIM_FACTORIES[name], keys, reqs_1d) for name in names_1d]
        + [("md", name, MULTI_DIM_FACTORIES[name], points, reqs_md) for name in names_md]
    )

    rows = []
    for space, name, factory, data, work in spaces:
        for num_shards in shard_counts:
            common = dict(num_shards=num_shards, capacity=capacity,
                          cache_size=cache_size, clients=clients, pipeline=pipeline)
            coalesced = _serve_once(factory, data, work, max_batch=max_batch,
                                    batch_submit=True, **common)
            serial = _serve_once(factory, data, work, max_batch=1,
                                 batch_submit=False, **common)
            rows.append({
                "space": space,
                "index": name,
                "dataset": dataset,
                "workload": workload,
                "n": n,
                "requests": requests,
                "shards": num_shards,
                "clients": clients,
                "pipeline": pipeline,
                "max_batch": max_batch,
                "coalesced": coalesced,
                "serial": serial,
                "speedup": (coalesced["ops_per_s"] / serial["ops_per_s"]
                            if serial["ops_per_s"] else 0.0),
            })

    if out:
        payload = {
            "experiment": "E19",
            "dataset": dataset,
            "workload": workload,
            "n": n,
            "requests": requests,
            "dims": dims,
            "seed": seed,
            "environment": _environment_metadata(),
            "results": {
                f"{row['space']}/{row['index']}/shards={row['shards']}": {
                    key: row[key]
                    for key in ("coalesced", "serial", "speedup",
                                "clients", "pipeline", "max_batch")
                }
                for row in rows
            },
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return rows
