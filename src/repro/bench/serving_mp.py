"""E20 — serving backends: shard worker threads vs. worker processes.

E19 established that coalescing recovers batch-kernel throughput inside
one process.  E20 asks the follow-up systems question: with the windows
already fused, does moving kernel execution into **per-shard worker
processes** (shared-memory snapshots, :mod:`repro.serve.mp`) buy
additional throughput by escaping the GIL — and at how many shards does
the crossover happen?

Both arms run the identical :class:`repro.serve.server.IndexServer`
coalescing machinery and the identical workload; the only difference is
``backend="thread"`` vs ``backend="process"``.  The sweep crosses shard
counts (1/2/4/8 by default) with learned contenders from both spaces.

Interpretation note: the process arm can only win when the machine has
cores to run workers on — on a single-CPU host it pays snapshot/IPC
costs with nothing to parallelize over, so ``mp_vs_thread`` < 1 there is
the *expected* honest result.  The artifact therefore records
``cpu_count`` next to every ratio; read the threads-vs-processes
decision table in README.md before quoting a number.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.bench.batch import _environment_metadata
from repro.bench.runner import MULTI_DIM_FACTORIES, ONE_DIM_FACTORIES
from repro.bench.serving import _parse_names
from repro.data import load_1d, load_nd
from repro.serve.server import IndexServer
from repro.serve.workload import WORKLOADS, make_workload, run_closed_loop

__all__ = ["run_e20", "DEFAULT_E20_ONE_DIM", "DEFAULT_E20_MULTI_DIM"]

#: 1-d contenders: the acceptance trio's 1-d half plus a classic control.
DEFAULT_E20_ONE_DIM = ("rmi", "pgm", "binary-search")

#: Multi-d contenders: the learned SFC index the tentpole names.
DEFAULT_E20_MULTI_DIM = ("zm-index",)


def _serve_backend(factory, data, requests, *, backend: str, num_shards: int,
                   max_batch: int, capacity: int, clients: int,
                   pipeline: int) -> dict:
    """Build one server with the given backend and drive the workload."""
    t0 = time.perf_counter()
    server = IndexServer(
        factory, num_shards=num_shards, max_batch=max_batch,
        capacity=capacity, cache_size=0, backend=backend,
    ).build(data)
    build_s = time.perf_counter() - t0
    try:
        driven = run_closed_loop(server, requests, clients=clients,
                                 pipeline=pipeline, batch_submit=True)
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
        "worker_restarts": stats["worker_restarts"],
        "p50_us": latency["p50_us"],  # type: ignore[index]
        "p95_us": latency["p95_us"],  # type: ignore[index]
        "p99_us": latency["p99_us"],  # type: ignore[index]
    }


def run_e20(n: int = 100000, requests: int = 20000, dims: int = 2,
            dataset: str = "uniform", workload: str = "zipfian",
            shards=(1, 2, 4, 8), clients: int = 8, pipeline: int = 64,
            max_batch: int = 512, capacity: int = 1 << 20,
            indexes=None, indexes_md=None,
            seed: int = 1, out: str | None = "BENCH_serve_mp.json",
            smoke: bool = False) -> list[dict]:
    """E20: thread-backed vs. process-backed shard execution.

    Args:
        n: keys (1-d) / points (multi-d) per store.
        requests: workload length per measurement arm.
        dims: dimensionality of the multi-d stores.
        dataset: dataset name for both spaces (``load_1d`` / ``load_nd``).
        workload: read-only generator name (writes stay parent-side in
            both arms, so a read workload isolates the GIL story).
        shards: shard counts to sweep (sequence or comma string).
        clients: concurrent closed-loop client threads.
        pipeline: requests each client keeps in flight.
        max_batch: coalescing window (identical in both arms).
        capacity: per-shard admission queue bound.
        indexes / indexes_md: 1-d / multi-d contender names (sequence or
            comma string); empty string selects none for that space.
        seed: RNG seed for data and workload.
        out: JSON artifact path, or ``None``/"" to skip writing.
        smoke: shrink to a seconds-scale CI configuration.

    Returns:
        One row per (space, index, shard count) with both backends'
        numbers plus the ``mp_vs_thread`` throughput ratio.
    """
    if smoke:
        n = min(n, 4000)
        requests = min(requests, 2000)
        shards = (1, 2)
        clients = min(clients, 4)
        pipeline = min(pipeline, 32)
        max_batch = min(max_batch, 256)
    if isinstance(shards, str):
        shards = [int(s) for s in shards.split(",") if s]
    shard_counts = [int(s) for s in shards]
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    names_1d = _parse_names(indexes, DEFAULT_E20_ONE_DIM, ONE_DIM_FACTORIES)
    names_md = _parse_names(indexes_md, DEFAULT_E20_MULTI_DIM, MULTI_DIM_FACTORIES)

    keys = load_1d(dataset, n, seed=seed)
    points = load_nd(dataset, n, dims=dims, seed=seed)
    reqs_1d = make_workload(workload, keys, requests, seed=seed + 1)
    reqs_md = make_workload(workload, points, requests, seed=seed + 1, multi_dim=True)

    spaces = (
        [("1d", name, ONE_DIM_FACTORIES[name], keys, reqs_1d) for name in names_1d]
        + [("md", name, MULTI_DIM_FACTORIES[name], points, reqs_md) for name in names_md]
    )

    if spaces:  # the first process-backend run pays one-off costs: keep them off row 1
        _serve_backend(*spaces[0][2:], backend="process", num_shards=1, max_batch=max_batch,
                       capacity=capacity, clients=clients, pipeline=pipeline)
    rows = []
    baseline_mp: dict[tuple[str, str], float] = {}
    for space, name, factory, data, work in spaces:
        for num_shards in shard_counts:
            common = dict(num_shards=num_shards, max_batch=max_batch,
                          capacity=capacity, clients=clients, pipeline=pipeline)
            threaded = _serve_backend(factory, data, work, backend="thread", **common)
            process = _serve_backend(factory, data, work, backend="process", **common)
            if (space, name) not in baseline_mp and process["ops_per_s"]:
                baseline_mp[(space, name)] = process["ops_per_s"]
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
                "thread": threaded,
                "process": process,
                "mp_vs_thread": (process["ops_per_s"] / threaded["ops_per_s"]
                                 if threaded["ops_per_s"] else 0.0),
                "mp_scaling": (process["ops_per_s"] / baseline_mp[(space, name)]
                               if baseline_mp.get((space, name)) else 0.0),
            })

    if out:
        payload = {
            "experiment": "E20",
            "dataset": dataset,
            "workload": workload,
            "n": n,
            "requests": requests,
            "dims": dims,
            "seed": seed,
            "cpu_count": os.cpu_count(),
            "environment": _environment_metadata(),
            "results": {
                f"{row['space']}/{row['index']}/shards={row['shards']}": {
                    key: row[key]
                    for key in ("thread", "process", "mp_vs_thread", "mp_scaling",
                                "clients", "pipeline", "max_batch")
                }
                for row in rows
            },
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return rows
