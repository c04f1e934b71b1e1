"""Ablation benches for the design choices DESIGN.md calls out.

A1 — RMI root-model complexity (linear vs quadratic vs tiny NN).
A2 — ALEX gapped-array density (fill factor vs insert cost).
A3 — ZM-index quantisation bits (code resolution vs scan waste).
A4 — BOURBON model epsilon (learned-LSM search window).
"""

import numpy as np

from repro.bench import render_table
from repro.bench.runner import build_index, measure_inserts, measure_lookups
from repro.curves.zorder import quantize
from repro.data import insert_stream, load_1d, load_nd, point_lookups, range_queries_nd
from repro.multidim import ZMIndex
from repro.onedim import ALEXIndex, BourbonLSM, RMIIndex

from .conftest import save_result


def test_a1_rmi_root_model(benchmark, results_dir):
    n = 20000
    keys = load_1d("osm", n, seed=1)
    queries = point_lookups(keys, 200, seed=2)
    rows = []
    for root in ("linear", "quadratic", "nn"):
        index, build_s = build_index(lambda: RMIIndex(num_models=64, root=root), keys)
        metrics = measure_lookups(index, queries)
        rows.append({
            "root": root,
            "build_s": build_s,
            "max_leaf_error": index.stats.extra["max_leaf_error"],
            "cmp_per_op": metrics["cmp_per_op"],
        })
    save_result(results_dir, "A1_rmi_root",
                render_table(rows, title=f"A1: RMI root model ablation (n={n}, osm)"))
    benchmark(lambda: RMIIndex(num_models=64, root="linear").build(keys))
    # The survey's §6.2 point: the NN root must buy error reduction to
    # justify its build cost — measured either way, build cost rises.
    by = {r["root"]: r for r in rows}
    assert by["nn"]["build_s"] > by["linear"]["build_s"]


def test_a2_alex_density(benchmark, results_dir):
    n = 10000
    keys = load_1d("lognormal", n, seed=3)
    stream = insert_stream(keys, 5000, seed=4)
    rows = []
    for density in (0.5, 0.7, 0.9):
        index, _ = build_index(lambda: ALEXIndex(density=density), keys)
        insert_metrics = measure_inserts(index, stream)
        read_metrics = measure_lookups(index, point_lookups(keys, 200, seed=5))
        rows.append({
            "density": density,
            "size_bytes": index.stats.size_bytes,
            "inserts_per_s": insert_metrics["inserts_per_s"],
            "cmp_per_op": read_metrics["cmp_per_op"],
        })
    save_result(results_dir, "A2_alex_density",
                render_table(rows, title=f"A2: ALEX gapped-array density (n={n})"))
    benchmark(lambda: ALEXIndex(density=0.7).build(keys))
    # Lower density = more gaps = bigger arrays.
    sizes = [r["size_bytes"] for r in rows]
    assert sizes == sorted(sizes, reverse=True)


def _cell_candidates(index, pts, boxes) -> float:
    """Points per box whose quantised cell lies in the box's cell range:
    the rows ZM must filter however it walks the curve."""
    cells = quantize(pts, index._lo, index._hi, index.bits)
    total = 0
    for lo, hi in boxes:
        corners = np.vstack((np.maximum(lo, index._lo), np.minimum(hi, index._hi)))
        lo_q, hi_q = quantize(corners, index._lo, index._hi, index.bits)
        total += int(np.all((cells >= lo_q) & (cells <= hi_q), axis=1).sum())
    return total / len(boxes)


def test_a3_zm_bits(benchmark, results_dir):
    n = 8000
    pts = load_nd("clusters", n, seed=6)
    boxes = range_queries_nd(pts, 30, 0.001, seed=7)
    rows = []
    for bits in (6, 10, 14, 18):
        index, build_s = build_index(lambda: ZMIndex(bits=bits), pts)
        index.stats.reset_counters()
        results = sum(len(index.range_query(lo, hi)) for lo, hi in boxes)
        rows.append({
            "bits": bits,
            "build_s": build_s,
            "cell_candidates_per_op": _cell_candidates(index, pts, boxes),
            "scanned_per_op": index.stats.keys_scanned / len(boxes),
            "results_per_op": results / len(boxes),
        })
    save_result(results_dir, "A3_zm_bits",
                render_table(rows, title=f"A3: ZM-index quantisation bits (n={n})"))
    benchmark(lambda: ZMIndex(bits=14).build(pts))
    # Coarse codes cram many points into each cell -> more filtering work.
    # (scanned_per_op counts every row the mask reads in the box's code
    # interval, the curve's excursions out of the box included, and those
    # lengthen as the cells shrink, so it rises with bits instead.)
    by = {r["bits"]: r["cell_candidates_per_op"] for r in rows}
    assert by[6] > by[14]


def test_a4_bourbon_epsilon(benchmark, results_dir):
    n = 20000
    keys = load_1d("books", n, seed=8)
    queries = point_lookups(keys, 200, seed=9)
    rows = []
    for epsilon in (4, 16, 64):
        index, _ = build_index(lambda: BourbonLSM(epsilon=epsilon), keys)
        metrics = measure_lookups(index, queries)
        rows.append({
            "epsilon": epsilon,
            "model_bytes": index.model_size_bytes(),
            "cmp_per_op": metrics["cmp_per_op"],
        })
    save_result(results_dir, "A4_bourbon_epsilon",
                render_table(rows, title=f"A4: BOURBON model epsilon (n={n})"))
    benchmark(lambda: BourbonLSM(epsilon=16).build(keys))
    models = [r["model_bytes"] for r in rows]
    cmps = [r["cmp_per_op"] for r in rows]
    assert models == sorted(models, reverse=True)  # tighter eps = bigger model
    assert cmps == sorted(cmps)                    # tighter eps = less search
