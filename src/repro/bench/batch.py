"""E17/E18 — batch-query throughput: per-key loops vs. vectorized batches.

SOSD and "Benchmarking Learned Indexes" (Marcus et al.) report lookup
throughput over large query batches because that is how index-serving
systems are actually driven.  In this pure-Python reproduction the
per-key query path is dominated by interpreter overhead, which buries
the algorithmic differences the survey taxonomy is about; the batch API
(:meth:`repro.core.interfaces.OneDimIndex.lookup_batch` and its
multi-dimensional counterparts) amortizes that overhead into numpy
kernels.  E17 quantifies the gap for the one-dimensional indexes;
E18 extends the measurement to the multi-dimensional space (projected
curves, learned grids, LISA shards) across uniform/clustered/skewed
spatial data.  Both emit machine-readable artifacts
(``BENCH_batch.json`` / ``BENCH_batch_md.json``) so later PRs can track
the performance trajectory.

Each also carries a *crossover arm*: the kernel against the scalar loop
at 1 to 256 rows per call, the curve each family's ``batch_crossover``
(the row count from which a batch call takes the kernel) is read off.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from bisect import bisect_left
from pathlib import Path
from unittest import mock

import numpy as np

from repro.bench.runner import (
    MULTI_DIM_FACTORIES,
    ONE_DIM_FACTORIES,
    build_index,
    measure_batch_lookups,
    measure_lookups,
)
from repro.core.interfaces import MultiDimIndex, _BuiltState
from repro.data import load_1d, load_nd, point_lookups, range_queries_nd

__all__ = [
    "run_e17", "run_e18", "measure_crossover", "DEFAULT_E17_INDEXES", "DEFAULT_E18_INDEXES",
    "DEFAULT_E17_CROSSOVER", "DEFAULT_E18_CROSSOVER", "CROSSOVER_ROWS",
]

#: Contenders with vectorized fast paths plus the loop-fallback B+-tree
#: as a control showing the fallback neither breaks nor regresses.
DEFAULT_E17_INDEXES = ("binary-search", "rmi", "pgm", "radix-spline", "b+tree")

#: E17's reference arm: every row reports its batch throughput relative to
#: this index's batch throughput (``vs_binary_batch``).
BATCH_REFERENCE = "binary-search"

#: Rounds of E17 batch calls; each round times every index once and an
#: index keeps its fastest call.  ``vs_binary_batch`` divides two batch
#: timings, and one ``--smoke`` call is a ~0.2 ms sample: interleaving
#: puts both sides of the ratio under the same machine load.
E17_BATCH_ROUNDS = 7

#: Multi-d contenders with vectorized fast paths (projected curve, learned
#: grid, uniform grid, learned shards) plus the loop-fallback KD-tree as
#: the control.
DEFAULT_E18_INDEXES = ("zm-index", "flood", "grid", "lisa", "kd-tree")

#: Spatial distributions driving the multi-d batch measurement.
DEFAULT_E18_DATASETS = ("uniform", "clusters", "skew")

#: Rows per call the crossover arms time.  An arm stops early once the
#: kernel has run at least twice as fast as the scalar loop at two row
#: counts in a row: its fixed cost is then paid off for good.
CROSSOVER_ROWS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)

#: The 1-d families with a ``_lookup_batch`` kernel: E17's crossover arm.
DEFAULT_E17_CROSSOVER = ("binary-search", "rmi", "pgm", "radix-spline", "dynamic-pgm")

#: The multi-d families with a ``_point_query_batch`` kernel: E18's
#: crossover arm (on the run's first dataset).
DEFAULT_E18_CROSSOVER = ("zm-index", "flood", "grid", "lisa")

#: Queries drawn for a crossover arm; calls read consecutive slices of
#: the pool, so each call sees fresh queries until it wraps.
_CROSSOVER_POOL = 20000


def _environment_metadata() -> dict:
    """Interpreter/library versions recorded in the bench artifacts."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


#: The two sides of the dispatch, as replacements for the one predicate
#: every batch entry point (and a dynamic PGM's per-level probe) asks.
_SIDES = (("kernel_us", lambda self, rows: True), ("scalar_us", lambda self, rows: False))


def _first_never_losing(rows: list[int], kernel_us: list[float],
                        scalar_us: list[float]) -> int | None:
    """The smallest row count from which the kernel is never slower than
    the scalar loop, or ``None`` when it loses at the last count."""
    measured = None
    for r, kernel, scalar in reversed(list(zip(rows, kernel_us, scalar_us))):
        if kernel > scalar:
            break
        measured = r
    return measured


def _drifted(measured: int | None, committed: int) -> bool:
    """Whether ``measured`` sits more than one :data:`CROSSOVER_ROWS`
    step away from the committed ``batch_crossover``."""
    if measured is None:
        return True
    return abs(bisect_left(CROSSOVER_ROWS, measured)
               - bisect_left(CROSSOVER_ROWS, committed)) > 1


def measure_crossover(index, pool: np.ndarray, calls: int = 40, rounds: int = 5) -> dict:
    """Kernel against scalar loop, µs per batch call, at each row count
    of :data:`CROSSOVER_ROWS`.

    Both sides go through the public batch entry point, so both pay its
    one validation; the side is picked by patching ``_use_kernel``.
    Each call reads fresh queries from ``pool``, the sides alternate
    round by round, and each keeps its fastest round's mean.
    ``measured`` is the smallest row count from which the kernel is
    never slower (``None`` when it loses at the last count measured);
    ``batch_crossover`` is the family's committed value.  The curve
    stops early once the kernel is twice as fast at two row counts in a
    row.
    """
    call = index.point_query_batch if pool.ndim == 2 else index.lookup_batch
    offset = 0
    curve: dict[str, list[float]] = {"kernel_us": [], "scalar_us": []}
    timed: list[int] = []
    for r in CROSSOVER_ROWS:
        if len(timed) >= 2 and all(2 * curve["kernel_us"][i] <= curve["scalar_us"][i]
                                   for i in (-1, -2)):
            break
        timed.append(r)
        best = {"kernel_us": float("inf"), "scalar_us": float("inf")}
        for _ in range(rounds):
            for side, use_kernel in _SIDES:
                picks = np.arange(offset, offset + calls * r) % pool.shape[0]
                offset += calls * r
                batches = [pool[picks[i * r:(i + 1) * r]] for i in range(calls)]
                with mock.patch.object(_BuiltState, "_use_kernel", use_kernel):
                    t0 = time.perf_counter()
                    for qs in batches:
                        call(qs)
                    elapsed = time.perf_counter() - t0
                best[side] = min(best[side], elapsed / calls * 1e6)
        for side, us in best.items():
            curve[side].append(us)
    return {
        "batch_crossover": type(index).batch_crossover,
        "measured": _first_never_losing(timed, curve["kernel_us"], curve["scalar_us"]),
        "rows": timed,
        **curve,
    }


def _crossover_arm(indexes: dict, pool: np.ndarray, smoke: bool) -> dict[str, dict]:
    """:func:`measure_crossover` per built index, sized for ``smoke``.

    A family whose measured crossover sits more than one row step from
    its committed constant is reported on stderr: the constant has
    drifted from this machine's curve (or the curve is too noisy to
    place it)."""
    calls, rounds = (8, 2) if smoke else (40, 5)
    curves = {}
    for name, index in indexes.items():
        curve = curves[name] = measure_crossover(index, pool, calls=calls, rounds=rounds)
        if _drifted(curve["measured"], curve["batch_crossover"]):
            print(f"crossover drift: {name} measured {curve['measured']} rows, "
                  f"batch_crossover is {curve['batch_crossover']}", file=sys.stderr)
    return curves


def run_e17(n: int = 100000, batch: int = 10000, dataset: str = "uniform",
            indexes=None, seed: int = 1, out: str | None = "BENCH_batch.json",
            smoke: bool = False) -> list[dict]:
    """E17: batched vs. per-key lookup throughput per index.

    Args:
        n: number of keys to index.
        batch: number of point queries answered per measurement.
        dataset: 1-d dataset name (see :func:`repro.data.load_1d`).
        indexes: contender names from ``ONE_DIM_FACTORIES`` (sequence or
            comma-separated string); defaults to the vectorized hot
            paths plus a loop-fallback control.
        seed: RNG seed for data and queries.
        out: path of the JSON artifact, or ``None``/"" to skip writing.
        smoke: shrink to a seconds-scale CI configuration.

    Returns:
        One row per index with scalar/batch ops/sec, the batch-vs-scalar
        ``speedup``, the absolute ``batch_us_per_key`` and
        ``vs_binary_batch`` (batch ops/sec over ``binary-search``'s; the
        regression-gated headline).  Batch numbers are each index's
        fastest call over :data:`E17_BATCH_ROUNDS` interleaved rounds.
        The crossover arm over :data:`DEFAULT_E17_CROSSOVER` goes to the
        artifact's ``crossover`` section, not to the rows.
    """
    if smoke:
        n = min(n, 5000)
        batch = min(batch, 1000)
    if isinstance(indexes, str):  # e.g. --param indexes=rmi,pgm
        indexes = [name for name in indexes.split(",") if name]
    names = list(indexes) if indexes else list(DEFAULT_E17_INDEXES)
    unknown = [name for name in names if name not in ONE_DIM_FACTORIES]
    if unknown:
        raise KeyError(f"unknown 1-d indexes {unknown!r}; have {sorted(ONE_DIM_FACTORIES)}")

    keys = load_1d(dataset, n, seed=seed)
    queries = point_lookups(keys, batch, seed=seed + 1)

    built = {name: build_index(ONE_DIM_FACTORIES[name], keys) for name in names}
    # The honest reference for a learned batch kernel is one vectorized
    # ``searchsorted`` over the same keys, not its own scalar loop.
    timed = {name: index for name, (index, _) in built.items()}
    if BATCH_REFERENCE not in timed:
        timed[BATCH_REFERENCE] = build_index(ONE_DIM_FACTORIES[BATCH_REFERENCE], keys)[0]
    fastest: dict[str, dict] = {}
    for _ in range(E17_BATCH_ROUNDS):
        for name, index in timed.items():
            run = measure_batch_lookups(index, queries)
            if name not in fastest or run["lookup_us"] < fastest[name]["lookup_us"]:
                fastest[name] = run
    reference = fastest[BATCH_REFERENCE]["ops_per_s"]

    rows = []
    for name in names:
        index, build_s = built[name]
        scalar = measure_lookups(index, queries)
        batched = fastest[name]
        scalar_ops = 1e6 / scalar["lookup_us"] if scalar["lookup_us"] else 0.0
        batch_ops = batched["ops_per_s"]
        rows.append({
            "index": name,
            "dataset": dataset,
            "n": n,
            "batch": batch,
            "scalar_ops_per_s": scalar_ops,
            "batch_ops_per_s": batch_ops,
            "speedup": batch_ops / scalar_ops if scalar_ops else 0.0,
            "batch_us_per_key": batched["lookup_us"],
            "hits_scalar": scalar["hits"],
            "hits_batch": batched["hits"],
            "build_s": build_s,
            "vs_binary_batch": batch_ops / reference if reference else 0.0,
        })

    curves = _crossover_arm(
        {name: timed[name] if name in timed else
         build_index(ONE_DIM_FACTORIES[name], keys)[0] for name in DEFAULT_E17_CROSSOVER},
        point_lookups(keys, _CROSSOVER_POOL, seed=seed + 2), smoke)

    if out:
        payload = {
            "experiment": "E17",
            "dataset": dataset,
            "n": n,
            "batch": batch,
            "seed": seed,
            "environment": _environment_metadata(),
            "results": {
                row["index"]: {
                    "scalar_ops_per_s": row["scalar_ops_per_s"],
                    "batch_ops_per_s": row["batch_ops_per_s"],
                    "speedup": row["speedup"],
                    "batch_us_per_key": row["batch_us_per_key"],
                    "vs_binary_batch": row["vs_binary_batch"],
                }
                for row in rows
            },
            "crossover": curves,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def run_e18(n: int = 100000, batch: int = 10000, dims: int = 2,
            datasets=None, indexes=None, seed: int = 1,
            range_batch: int = 200, scalar_sample: int = 2000,
            out: str | None = "BENCH_batch_md.json",
            smoke: bool = False) -> list[dict]:
    """E18: batched vs. per-point query throughput for multi-d indexes.

    Mirrors E17 in the multi-dimensional space: for each (dataset, index)
    pair it measures scalar point-query ops/sec (a Python loop of
    ``point_query`` calls over a sample of the batch) against batched
    ops/sec (one ``point_query_batch`` call over the full batch).  For
    indexes that override ``range_query_batch`` it additionally measures
    batched vs. looped range-query throughput over a small box workload.
    The KD-tree rides along as the loop-fallback control — its "speedup"
    is the overhead of the generic fallback, expected ~1x.

    Args:
        n: number of points to index.
        batch: number of point queries per batched measurement.
        dims: dimensionality of the spatial data.
        datasets: spatial dataset names (see :func:`repro.data.load_nd`);
            sequence or comma-separated string.
        indexes: contender names from ``MULTI_DIM_FACTORIES`` (sequence
            or comma-separated string).
        seed: RNG seed for data and queries.
        range_batch: number of range queries for the range-batch probe.
        scalar_sample: cap on the scalar-loop sample (the slow side);
            throughput extrapolates, parity is covered by the test suite.
        out: path of the JSON artifact, or ``None``/"" to skip writing.
        smoke: shrink to a seconds-scale CI configuration.

    Returns:
        One row per (dataset, index) with scalar/batch ops/sec and speedups.
        The crossover arm over :data:`DEFAULT_E18_CROSSOVER`, on the first
        dataset, goes to the artifact's ``crossover`` section.
    """
    if smoke:
        n = min(n, 4000)
        batch = min(batch, 800)
        range_batch = min(range_batch, 40)
        scalar_sample = min(scalar_sample, 400)
        if datasets is None:
            datasets = ("uniform",)
    if isinstance(datasets, str):
        datasets = [name for name in datasets.split(",") if name]
    if isinstance(indexes, str):
        indexes = [name for name in indexes.split(",") if name]
    dataset_names = list(datasets) if datasets else list(DEFAULT_E18_DATASETS)
    names = list(indexes) if indexes else list(DEFAULT_E18_INDEXES)
    unknown = [name for name in names if name not in MULTI_DIM_FACTORIES]
    if unknown:
        raise KeyError(f"unknown multi-d indexes {unknown!r}; have {sorted(MULTI_DIM_FACTORIES)}")

    rows = []
    curves: dict[str, dict] = {}
    for dataset in dataset_names:
        points = load_nd(dataset, n, dims=dims, seed=seed)
        queries = point_lookups(points, batch, seed=seed + 1)
        boxes = range_queries_nd(points, range_batch, selectivity=0.0005, seed=seed + 2)
        box_lows = np.vstack([lo for lo, _ in boxes]) if boxes else np.empty((0, dims))
        box_highs = np.vstack([hi for _, hi in boxes]) if boxes else np.empty((0, dims))
        built: dict[str, MultiDimIndex] = {}
        for name in names:
            index, build_s = build_index(MULTI_DIM_FACTORIES[name], points)
            built[name] = index
            sample = queries[: min(scalar_sample, len(queries))]
            scalar = measure_lookups(index, sample, is_multi_dim=True)
            batched = measure_batch_lookups(index, queries, is_multi_dim=True)
            scalar_ops = 1e6 / scalar["lookup_us"] if scalar["lookup_us"] else 0.0
            batch_ops = batched["ops_per_s"]
            row = {
                "index": name,
                "dataset": dataset,
                "n": n,
                "dims": dims,
                "batch": batch,
                "scalar_ops_per_s": scalar_ops,
                "batch_ops_per_s": batch_ops,
                "speedup": batch_ops / scalar_ops if scalar_ops else 0.0,
                "hits_batch": batched["hits"],
                "build_s": build_s,
            }
            # Range-batch probe only where an override exists: the generic
            # fallback is the same loop as the scalar side, so timing it
            # would just measure noise.
            if type(index).range_query_batch is not MultiDimIndex.range_query_batch:
                row.update(_measure_range_batch(index, box_lows, box_highs))
            rows.append(row)
        if dataset == dataset_names[0]:
            curves = _crossover_arm(
                {name: built[name] if name in built else
                 build_index(MULTI_DIM_FACTORIES[name], points)[0]
                 for name in DEFAULT_E18_CROSSOVER},
                point_lookups(points, _CROSSOVER_POOL, seed=seed + 3), smoke)

    if out:
        payload = {
            "experiment": "E18",
            "datasets": dataset_names,
            "n": n,
            "dims": dims,
            "batch": batch,
            "range_batch": range_batch,
            "seed": seed,
            "environment": _environment_metadata(),
            "results": {
                f"{row['dataset']}/{row['index']}": {
                    "scalar_ops_per_s": row["scalar_ops_per_s"],
                    "batch_ops_per_s": row["batch_ops_per_s"],
                    "speedup": row["speedup"],
                    **({"range_speedup": row["range_speedup"]}
                       if "range_speedup" in row else {}),
                }
                for row in rows
            },
            "crossover": curves,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def _measure_range_batch(index, lows: np.ndarray, highs: np.ndarray) -> dict:
    """Looped vs. batched range-query throughput for one built index."""
    m = lows.shape[0]
    if m == 0:
        return {}
    t0 = time.perf_counter()
    loop_results = [index.range_query(lows[i], highs[i]) for i in range(m)]
    loop_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch_results = index.range_query_batch(lows, highs)
    batch_s = time.perf_counter() - t0
    loop_ops = m / loop_s if loop_s else 0.0
    batch_ops = m / batch_s if batch_s else 0.0
    return {
        "range_scalar_ops_per_s": loop_ops,
        "range_batch_ops_per_s": batch_ops,
        "range_speedup": batch_ops / loop_ops if loop_ops else 0.0,
        "range_hits": sum(len(r) for r in batch_results),
        "range_hits_scalar": sum(len(r) for r in loop_results),
    }
