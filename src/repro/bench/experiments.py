"""The experiment registry: one entry per table/figure in EXPERIMENTS.md.

Paper artifacts F1-F3 and T1 regenerate the tutorial's figures from the
registry; experiments E1-E12 form the benchmark suite the paper's §6.8
calls for (1-d methodology mirroring SOSD, plus the missing
multi-dimensional benchmark).  Every function returns a list of row
dicts; render with :func:`repro.bench.report.render_table`.

Scale parameters default to laptop-friendly sizes; the pytest-benchmark
targets in ``benchmarks/`` call these with their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines import BloomFilter
from repro.bench.runner import (
    MULTI_DIM_FACTORIES,
    MUTABLE_MULTI_DIM_FACTORIES,
    MUTABLE_ONE_DIM_FACTORIES,
    ONE_DIM_FACTORIES,
    build_index,
    measure_inserts,
    measure_lookups,
    measure_range_queries,
)
from repro.core.spectrum import render_spectrum
from repro.core.summary import render_ml_summary, render_query_summary
from repro.core.timeline import render_timeline
from repro.core.tree_render import render_taxonomy
from repro.data import (
    insert_stream,
    knn_queries,
    load_1d,
    load_nd,
    mixed_workload,
    negative_lookups,
    point_lookups,
    range_queries_nd,
)
from repro.multidim import FloodIndex, TsunamiIndex
from repro.onedim import (
    LearnedBloomFilter,
    PartitionedLearnedBloomFilter,
    PGMIndex,
    SandwichedLearnedBloomFilter,
)

__all__ = ["EXPERIMENTS", "Experiment", "run_experiment"] + [
    f"run_e{i}" for i in range(1, 13)
]

_1D_DATASETS = ("uniform", "lognormal", "books", "osm", "wiki", "fb")
_ND_DATASETS = ("uniform", "clusters", "skew", "osm-like")


# ---------------------------------------------------------------------------
# E1 - E6: one-dimensional suite
# ---------------------------------------------------------------------------

def run_e1(n: int = 50000, lookups: int = 1000, datasets=_1D_DATASETS,
           indexes=None, seed: int = 1) -> list[dict]:
    """E1: point-lookup latency, every 1-d index x every distribution."""
    rows = []
    names = indexes or list(ONE_DIM_FACTORIES)
    for ds in datasets:
        keys = load_1d(ds, n, seed=seed)
        queries = point_lookups(keys, lookups, seed=seed + 1)
        for name in names:
            index, build_s = build_index(ONE_DIM_FACTORIES[name], keys)
            metrics = measure_lookups(index, queries)
            rows.append({
                "dataset": ds,
                "index": name,
                "lookup_us": metrics["lookup_us"],
                "cmp_per_op": metrics["cmp_per_op"],
                "hits": metrics["hits"],
            })
    return rows


def run_e2(n: int = 50000, datasets=_1D_DATASETS, indexes=None, seed: int = 1) -> list[dict]:
    """E2: index size and build time per 1-d index and distribution.

    Each dataset also gets an ``np.sort`` row: sorting the same keys is
    the floor every build sits above (its size is the sorted column).
    """
    import time as _time
    rows = []
    names = indexes or list(ONE_DIM_FACTORIES)
    for ds in datasets:
        keys = load_1d(ds, n, seed=seed)
        start = _time.perf_counter()
        floor = np.sort(keys)
        built = [("np.sort", _time.perf_counter() - start, floor.nbytes)]
        for name in names:
            index, build_s = build_index(ONE_DIM_FACTORIES[name], keys)
            built.append((name, build_s, index.stats.size_bytes))
        rows += [{"dataset": ds, "index": name, "build_s": build_s,
                  "build_ns_per_key": build_s / n * 1e9,
                  "size_bytes": size, "bytes_per_key": size / n}
                 for name, build_s, size in built]
    return rows


def run_e3(n: int = 20000, inserts: int = 10000, indexes=None,
           mode: str = "uniform", seed: int = 1) -> list[dict]:
    """E3: insert throughput of the mutable 1-d indexes."""
    rows = []
    names = indexes or list(MUTABLE_ONE_DIM_FACTORIES)
    keys = load_1d("lognormal", n, seed=seed)
    stream = insert_stream(keys, inserts, seed=seed + 1, mode=mode)
    for name in names:
        index, _ = build_index(MUTABLE_ONE_DIM_FACTORIES[name], keys)
        metrics = measure_inserts(index, stream)
        # Post-insert read check: learned in-place vs delta-buffer designs
        # differ most in read latency *after* inserts.
        reads = point_lookups(stream, min(1000, inserts), seed=seed + 2)
        read_metrics = measure_lookups(index, reads)
        rows.append({
            "index": name,
            "insert_mode": mode,
            "inserts_per_s": metrics["inserts_per_s"],
            "post_insert_lookup_us": read_metrics["lookup_us"],
        })
    return rows


def run_e4(n: int = 20000, ops: int = 8000, indexes=None, seed: int = 1,
           read_ratios=(0.0, 0.5, 0.9, 1.0)) -> list[dict]:
    """E4: mixed read/write workloads over the mutable 1-d indexes."""
    import time as _time

    rows = []
    names = indexes or list(MUTABLE_ONE_DIM_FACTORIES)
    keys = load_1d("lognormal", n, seed=seed)
    for ratio in read_ratios:
        workload = list(mixed_workload(keys, ops, ratio, seed=seed + 3))
        for name in names:
            index, _ = build_index(MUTABLE_ONE_DIM_FACTORIES[name], keys)
            start = _time.perf_counter()
            for op in workload:
                if op.kind == "read":
                    index.lookup(op.key)
                else:
                    index.insert(op.key, None)
            elapsed = _time.perf_counter() - start
            rows.append({
                "index": name,
                "read_ratio": ratio,
                "ops_per_s": ops / elapsed if elapsed > 0 else 0.0,
            })
    return rows


def run_e5(n: int = 100000, lookups: int = 1000, seed: int = 1,
           epsilons=(8, 16, 32, 64, 128, 256)) -> list[dict]:
    """E5: the PGM epsilon trade-off (size vs latency vs segments)."""
    rows = []
    keys = load_1d("books", n, seed=seed)
    queries = point_lookups(keys, lookups, seed=seed + 1)
    for epsilon in epsilons:
        index, build_s = build_index(lambda: PGMIndex(epsilon=epsilon), keys)
        metrics = measure_lookups(index, queries)
        rows.append({
            "epsilon": epsilon,
            "segments": index.num_segments,
            "levels": index.num_levels,
            "size_bytes": index.stats.size_bytes,
            "lookup_us": metrics["lookup_us"],
            "cmp_per_op": metrics["cmp_per_op"],
            "build_s": build_s,
        })
    return rows


def run_e6(n: int = 20000, seed: int = 1,
           bits_per_key=(6, 8, 10, 12, 16)) -> list[dict]:
    """E6: Bloom-filter family FPR at equal bit budgets.

    Keys are clustered (learnable structure); negatives are uniform over
    the same range — the regime where learned filters beat classical
    ones.  Zero false negatives is asserted by the test suite, not here.
    """
    rows = []
    keys = load_1d("osm", n, seed=seed)
    negatives = negative_lookups(keys, n, seed=seed + 1)
    contenders: dict[str, Callable[[int], object]] = {
        "bloom": lambda bits: BloomFilter(bits=bits),
        "learned": lambda bits: LearnedBloomFilter(bits_budget=bits),
        "sandwiched": lambda bits: SandwichedLearnedBloomFilter(bits_budget=bits),
        "partitioned": lambda bits: PartitionedLearnedBloomFilter(bits_budget=bits),
    }
    for bpk in bits_per_key:
        bits = int(bpk * n)
        for name, make in contenders.items():
            flt = make(bits)
            flt.build(keys)
            fpr = flt.false_positive_rate(negatives)
            rows.append({
                "bits_per_key": bpk,
                "filter": name,
                "fpr": fpr,
            })
    return rows


# ---------------------------------------------------------------------------
# E7 - E12: the multi-dimensional benchmark (§6.8)
# ---------------------------------------------------------------------------

def run_e7(n: int = 20000, lookups: int = 500, datasets=_ND_DATASETS,
           indexes=None, seed: int = 1) -> list[dict]:
    """E7: multi-dimensional point queries."""
    rows = []
    names = indexes or list(MULTI_DIM_FACTORIES)
    for ds in datasets:
        pts = load_nd(ds, n, seed=seed)
        rng = np.random.default_rng(seed + 1)
        queries = pts[rng.integers(0, n, lookups)]
        for name in names:
            index, build_s = build_index(MULTI_DIM_FACTORIES[name], pts)
            metrics = measure_lookups(index, queries, is_multi_dim=True)
            rows.append({
                "dataset": ds,
                "index": name,
                "lookup_us": metrics["lookup_us"],
                "scanned_per_op": metrics["scanned_per_op"],
                "hits": metrics["hits"],
            })
    return rows


def run_e8(n: int = 20000, queries: int = 100, datasets=("uniform", "clusters"),
           indexes=None, seed: int = 1,
           selectivities=(0.0001, 0.001, 0.01, 0.1)) -> list[dict]:
    """E8: multi-dimensional range queries across selectivities."""
    rows = []
    names = indexes or list(MULTI_DIM_FACTORIES)
    for ds in datasets:
        pts = load_nd(ds, n, seed=seed)
        for sel in selectivities:
            boxes = range_queries_nd(pts, queries, sel, seed=seed + 2)
            for name in names:
                index, _ = build_index(MULTI_DIM_FACTORIES[name], pts)
                metrics = measure_range_queries(index, boxes, is_multi_dim=True)
                rows.append({
                    "dataset": ds,
                    "selectivity": sel,
                    "index": name,
                    "range_us": metrics["range_us"],
                    "avg_results": metrics["avg_results"],
                    "scanned_per_op": metrics["scanned_per_op"],
                })
    return rows


def run_e9(n: int = 20000, queries: int = 50, indexes=None, seed: int = 1,
           ks=(1, 10, 100)) -> list[dict]:
    """E9: kNN queries (traditional trees vs learned indexes)."""
    import time as _time

    rows = []
    names = indexes or ["r-tree", "kd-tree", "quadtree", "grid",
                        "zm-index", "ml-index", "flood", "sprig"]
    pts = load_nd("clusters", n, seed=seed)
    qs = knn_queries(pts, queries, seed=seed + 1)
    for k in ks:
        for name in names:
            index, _ = build_index(MULTI_DIM_FACTORIES[name], pts)
            start = _time.perf_counter()
            for q in qs:
                index.knn_query(q, k)
            elapsed = _time.perf_counter() - start
            rows.append({
                "k": k,
                "index": name,
                "knn_us": elapsed / queries * 1e6,
            })
    return rows


def run_e10(n: int = 20000, queries: int = 100, seed: int = 1,
            rhos=(0.0, 0.8, 0.99)) -> list[dict]:
    """E10: correlation sensitivity — Flood vs Tsunami vs R-tree.

    Includes the untuned-Flood ablation: `flood` is workload-tuned,
    `flood-untuned` keeps the default uniform grid.
    """
    from repro.baselines import RTreeIndex
    from repro.data.spatial import correlated_points

    rows = []
    for rho in rhos:
        pts = correlated_points(n, seed=seed, rho=rho)
        boxes = range_queries_nd(pts, queries, 0.001, seed=seed + 2)
        contenders = {
            "flood-untuned": lambda: FloodIndex(columns_per_dim=16),
            "flood": lambda: FloodIndex(columns_per_dim=16),
            "tsunami": lambda: TsunamiIndex(region_depth=3),
            "r-tree": RTreeIndex,
        }
        for name, make in contenders.items():
            index, _ = build_index(make, pts)
            if name == "flood":
                index.tune(boxes[: queries // 2], candidates=(4, 8, 16, 32, 64))
            elif name == "tsunami":
                index.tune(boxes[: queries // 2], candidates=(4, 8, 16))
            metrics = measure_range_queries(index, boxes, is_multi_dim=True)
            rows.append({
                "rho": rho,
                "index": name,
                "range_us": metrics["range_us"],
                "scanned_per_op": metrics["scanned_per_op"],
            })
    return rows


def run_e11(n: int = 20000, datasets=("uniform", "clusters"), indexes=None,
            seed: int = 1) -> list[dict]:
    """E11: multi-dimensional build time and size."""
    rows = []
    names = indexes or list(MULTI_DIM_FACTORIES)
    for ds in datasets:
        pts = load_nd(ds, n, seed=seed)
        for name in names:
            index, build_s = build_index(MULTI_DIM_FACTORIES[name], pts)
            rows.append({
                "dataset": ds,
                "index": name,
                "build_s": build_s,
                "size_bytes": index.stats.size_bytes,
            })
    return rows


def run_e12(n: int = 10000, inserts: int = 5000, indexes=None, seed: int = 1) -> list[dict]:
    """E12: mutable multi-dimensional insert throughput + post-insert reads."""
    rows = []
    names = indexes or list(MUTABLE_MULTI_DIM_FACTORIES)
    pts = load_nd("clusters", n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    span = pts.max(axis=0) - pts.min(axis=0)
    new_pts = pts.min(axis=0) + rng.uniform(0, 1, (inserts, pts.shape[1])) * span
    for name in names:
        index, _ = build_index(MUTABLE_MULTI_DIM_FACTORIES[name], pts)
        metrics = measure_inserts(index, new_pts, is_multi_dim=True)
        reads = new_pts[rng.integers(0, inserts, min(500, inserts))]
        read_metrics = measure_lookups(index, reads, is_multi_dim=True)
        rows.append({
            "index": name,
            "inserts_per_s": metrics["inserts_per_s"],
            "post_insert_lookup_us": read_metrics["lookup_us"],
        })
    return rows


# ---------------------------------------------------------------------------
# Paper artifacts
# ---------------------------------------------------------------------------

def run_f1() -> str:
    """F1: Figure 1 (spectrum of learned indexes)."""
    return render_spectrum()


def run_f2() -> str:
    """F2: Figure 2 (taxonomy tree)."""
    return render_taxonomy()


def run_f3() -> str:
    """F3: Figure 3 (evolution timeline)."""
    return render_timeline()


def run_t1() -> str:
    """T1: §5.6 summary tables (ML techniques + query-type support)."""
    return render_ml_summary() + "\n\n" + render_query_summary()


@dataclass(frozen=True)
class Experiment:
    """One registered experiment."""

    id: str
    description: str
    runner: Callable


EXPERIMENTS: dict[str, Experiment] = {
    "F1": Experiment("F1", "Figure 1: spectrum of learned indexes", run_f1),
    "F2": Experiment("F2", "Figure 2: taxonomy of learned indexes", run_f2),
    "F3": Experiment("F3", "Figure 3: evolution timeline", run_f3),
    "T1": Experiment("T1", "Summary: ML techniques and query types (§5.6)", run_t1),
    "E1": Experiment("E1", "1-d lookup latency per index x distribution", run_e1),
    "E2": Experiment("E2", "1-d index size and build time", run_e2),
    "E3": Experiment("E3", "1-d insert throughput (mutable indexes)", run_e3),
    "E4": Experiment("E4", "1-d mixed read/write workloads", run_e4),
    "E5": Experiment("E5", "PGM epsilon trade-off", run_e5),
    "E6": Experiment("E6", "Bloom family: FPR vs bits/key", run_e6),
    "E7": Experiment("E7", "multi-d point queries", run_e7),
    "E8": Experiment("E8", "multi-d range queries vs selectivity", run_e8),
    "E9": Experiment("E9", "multi-d kNN queries", run_e9),
    "E10": Experiment("E10", "correlation sensitivity: Flood vs Tsunami", run_e10),
    "E11": Experiment("E11", "multi-d build time and size", run_e11),
    "E12": Experiment("E12", "mutable multi-d insert throughput", run_e12),
}


def _register_extensions() -> None:
    """Register the open-challenge experiments (import-cycle-free)."""
    from repro.bench.batch import run_e17, run_e18
    from repro.bench.coldstart import run_e21
    from repro.bench.extensions import run_e13, run_e14, run_e15, run_e16
    from repro.bench.scaling import run_e22
    from repro.bench.serving import run_e19
    from repro.bench.serving_mp import run_e20
    from repro.bench.tuning import run_e23

    EXPERIMENTS["E13"] = Experiment(
        "E13", "poisoning attacks: RMI vs PGM worst-case guarantee (§6.7)", run_e13)
    EXPERIMENTS["E14"] = Experiment(
        "E14", "distribution drift and re-training (§6.3)", run_e14)
    EXPERIMENTS["E15"] = Experiment(
        "E15", "learned models as hash functions (refs [102, 103])", run_e15)
    EXPERIMENTS["E16"] = Experiment(
        "E16", "SNARF learned range filter: FPR vs bits/key", run_e16)
    EXPERIMENTS["E17"] = Experiment(
        "E17", "batch-query throughput: vectorized vs per-key lookups", run_e17)
    EXPERIMENTS["E18"] = Experiment(
        "E18", "multi-d batch-query throughput: vectorized vs per-point", run_e18)
    EXPERIMENTS["E19"] = Experiment(
        "E19", "serving throughput/tail latency: coalesced vs one-at-a-time", run_e19)
    EXPERIMENTS["E20"] = Experiment(
        "E20", "serving backends: shard worker threads vs processes", run_e20)
    EXPERIMENTS["E21"] = Experiment(
        "E21", "cold start: artifact load vs rebuild, time-to-first-query", run_e21)
    EXPERIMENTS["E22"] = Experiment(
        "E22", "scaling witness: counted work per lookup vs n, per contract", run_e22)
    EXPERIMENTS["E23"] = Experiment(
        "E23", "self-tuning vs static serving under drifting/skewed workloads", run_e23)


_register_extensions()


def run_experiment(experiment_id: str, **kwargs):
    """Run a registered experiment by id and return its rows/artifact."""
    try:
        experiment = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; have {sorted(EXPERIMENTS)}"
        ) from None
    return experiment.runner(**kwargs)
