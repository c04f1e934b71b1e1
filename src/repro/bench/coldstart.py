"""E21 — cold start: artifact load vs. rebuild, time-to-first-query.

The artifact store (:mod:`repro.core.artifact`) exists so a built index
never has to be built twice: arrays come back as read-only views over a
digest-verified mapped file, and reconstruction runs no training.  E21
puts a number on that promise.  Each contender is built and saved; the
experiment then measures **time-to-first-query** along two paths, each
the best of ``repeats`` runs:

* *rebuild*: fresh factory → ``build(data)`` → one query, and
* *load*: :func:`~repro.core.artifact.load_index_artifact` with
  ``mmap_mode="r"`` → the same query,

and reports ``load_vs_rebuild`` = rebuild seconds / load seconds (bigger
is better; 10x means cold start costs a tenth of retraining).  The sweep
covers the **full** 1-d and multi-d registries at the first size and the
model-heavy contenders (plus a classic control) at the larger sizes,
where training dominates and the ratio is the honest headline.

A second section snapshots a built 4-shard
:class:`~repro.serve.server.IndexServer` and restores it with
:meth:`~repro.serve.server.IndexServer.from_snapshot` — no shard runs
``build()`` on restore — measuring the same two paths through the full
serving stack (coalescer start included).

The first query is part of both measurements deliberately: mapped loads
defer page-in, so excluding the query would flatter the load arm.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.bench.batch import _environment_metadata
from repro.bench.runner import MULTI_DIM_FACTORIES, ONE_DIM_FACTORIES
from repro.core.artifact import load_index_artifact, save_index_artifact
from repro.data import load_1d, load_nd
from repro.serve.server import IndexServer

__all__ = [
    "run_e21",
    "MODEL_HEAVY_ONE_DIM",
    "MODEL_HEAVY_MULTI_DIM",
    "LARGE_SCALE_CONTROL",
]

#: Contenders whose build time is dominated by model training — the
#: population the acceptance headline (>=10x at 10^6 keys) is read from.
MODEL_HEAVY_ONE_DIM = ("rmi", "pgm", "radix-spline")
MODEL_HEAVY_MULTI_DIM = ("zm-index", "flood")

#: A traditional baseline kept in the large-scale sweep as a control:
#: its "build" is a sort, so its ratio shows what the artifact saves
#: even when there is no model to retrain.
LARGE_SCALE_CONTROL = ("binary-search",)

#: Shards in the IndexServer snapshot/restore section (the acceptance
#: criterion restores a 4-shard server without any build()).
_SERVER_SHARDS = 4


def _artifact_nbytes(directory: Path) -> int:
    """Total bytes of one artifact directory (manifest + blocks)."""
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _first_query(index: object, data, multi_dim: bool) -> None:
    if multi_dim:
        index.point_query(data[0])  # type: ignore[attr-defined]
    else:
        index.lookup(float(data[0]))  # type: ignore[attr-defined]


def _best_of(repeats: int, run: Callable[[], object],
             dispose: Callable[[object], None] = lambda _: None) -> tuple[float, object]:
    """Fastest of ``repeats`` timed ``run()`` calls, and the last call's
    result; every earlier result goes to ``dispose`` once the next call
    has been timed."""
    best, result = float("inf"), None
    for i in range(max(1, repeats)):
        t0 = time.perf_counter()
        fresh = run()
        best = min(best, time.perf_counter() - t0)
        if i:
            dispose(result)
        result = fresh
    return best, result


def _measure_index(name: str, factory: Callable[[], object], data,
                   multi_dim: bool, repeats: int) -> dict:
    """Rebuild vs. artifact-load time-to-first-query for one contender.

    Both arms are best of ``repeats``: one timed build swings the ratio
    by more than the regression band at smoke sizes."""
    def rebuild() -> object:
        index = factory()
        index.build(data)  # type: ignore[attr-defined]
        _first_query(index, data, multi_dim)
        return index

    def load() -> object:
        view = load_index_artifact(root, mmap_mode="r")
        _first_query(view, data, multi_dim)
        return view

    rebuild_s, index = _best_of(repeats, rebuild)
    with tempfile.TemporaryDirectory(prefix="repro_e21_") as tmp:
        root = Path(tmp) / name
        save_index_artifact(index, root)
        nbytes = _artifact_nbytes(root)
        del index
        load_s, _ = _best_of(repeats, load)
    return {
        "build_s": rebuild_s,
        "load_s": load_s,
        "artifact_bytes": nbytes,
        "load_vs_rebuild": rebuild_s / load_s if load_s else 0.0,
    }


def _measure_server(name: str, factory: Callable[[], object], data,
                    multi_dim: bool, repeats: int) -> dict:
    """Rebuild vs. snapshot-restore time-to-first-query for a 4-shard
    server, each best of ``repeats``."""
    def query(server: IndexServer) -> IndexServer:
        if multi_dim:
            server.point_query(data[0])
        else:
            server.lookup(float(data[0]))
        return server

    def close(server: object) -> None:
        server.close()  # type: ignore[attr-defined]

    rebuild_s, server = _best_of(
        repeats, lambda: query(IndexServer(factory, num_shards=_SERVER_SHARDS).build(data)),
        close)
    with tempfile.TemporaryDirectory(prefix="repro_e21_srv_") as tmp:
        root = Path(tmp) / name
        server.save_snapshot(root)  # type: ignore[attr-defined]
        nbytes = _artifact_nbytes(root)
        close(server)
        restore_s, restored = _best_of(
            repeats, lambda: query(IndexServer.from_snapshot(root, factory=factory)), close)
        close(restored)
    return {
        "build_s": rebuild_s,
        "load_s": restore_s,
        "artifact_bytes": nbytes,
        "shards": _SERVER_SHARDS,
        "load_vs_rebuild": rebuild_s / restore_s if restore_s else 0.0,
    }


def run_e21(sizes: Sequence[int] | str = (100_000, 1_000_000),
            dataset: str = "uniform", dims: int = 2, repeats: int = 3,
            seed: int = 1, out: str | None = "BENCH_coldstart.json",
            smoke: bool = False) -> list[dict]:
    """E21: artifact cold start vs. rebuild across the registry.

    Args:
        sizes: key/point counts to sweep (sequence or comma string).
            The *first* size runs the full 1-d and multi-d registries;
            every later size runs only the model-heavy contenders plus
            the classic control, where training time dominates.
        dataset: dataset name for both spaces.
        dims: dimensionality of the multi-d sweep.
        repeats: repetitions of each arm (best-of, rebuild and load alike).
        seed: RNG seed for the datasets.
        out: JSON artifact path, or ``None``/"" to skip writing.
        smoke: shrink to a seconds-scale CI configuration.

    Returns:
        One row per (space, index, n) plus the 4-shard IndexServer
        snapshot/restore rows, each carrying ``load_vs_rebuild``.
    """
    if smoke:
        sizes = (2000,)
    if isinstance(sizes, str):
        sizes = [int(s) for s in sizes.split(",") if s]
    sizes = [int(s) for s in sizes]

    smoke_1d = ("rmi", "pgm", "binary-search")
    smoke_md = ("zm-index",)
    rows: list[dict] = []
    for i, n in enumerate(sizes):
        if smoke:
            names_1d: Sequence[str] = smoke_1d
            names_md: Sequence[str] = smoke_md
        elif i == 0:
            names_1d = tuple(ONE_DIM_FACTORIES)
            names_md = tuple(MULTI_DIM_FACTORIES)
        else:
            names_1d = MODEL_HEAVY_ONE_DIM + LARGE_SCALE_CONTROL
            names_md = MODEL_HEAVY_MULTI_DIM
        keys = load_1d(dataset, n, seed=seed)
        points = load_nd(dataset, n, dims=dims, seed=seed)
        for name in names_1d:
            row = _measure_index(name, ONE_DIM_FACTORIES[name], keys,
                                 multi_dim=False, repeats=repeats)
            rows.append({"space": "1d", "index": name, "n": n,
                         "dataset": dataset, **row})
        for name in names_md:
            row = _measure_index(name, MULTI_DIM_FACTORIES[name], points,
                                 multi_dim=True, repeats=repeats)
            rows.append({"space": "md", "index": name, "n": n,
                         "dataset": dataset, "dims": dims, **row})
        # Serving stack: snapshot/restore a 4-shard server end to end.
        for name in (("rmi",) if i == 0 or smoke else MODEL_HEAVY_ONE_DIM[:1]):
            row = _measure_server(name, ONE_DIM_FACTORIES[name], keys,
                                  multi_dim=False, repeats=repeats)
            rows.append({"space": "server", "index": name, "n": n,
                         "dataset": dataset, **row})

    if out:
        payload = {
            "experiment": "E21",
            "dataset": dataset,
            "sizes": sizes,
            "dims": dims,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count(),
            "environment": _environment_metadata(),
            "results": {
                f"{row['space']}/{row['index']}/n={row['n']}": {
                    key: row[key]
                    for key in ("build_s", "load_s", "artifact_bytes",
                                "load_vs_rebuild")
                }
                for row in rows
            },
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return rows
