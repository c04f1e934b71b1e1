"""perfbench command line.

``python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1``
is one run of one workload in this process and prints one JSON object
as its last line (the ``BENCHMARK.json`` contract).  Without
``--workload`` the command runs every workload in its own fresh
subprocess, two interleaved passes, and prints every end-to-end metric
by name; ``--trace`` alone prints every per-layer metric; ``--selfcheck``
runs the end-to-end set twice and compares the two against the bounds
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# The benchmark runs from a source checkout: `repro` is imported from
# src/, and where that is missing the run fails before printing a result.
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, measure, workloads  # noqa: E402

DEFAULT_SECONDS = 8
SMOKE_SECONDS = 1
PASSES = 2                # interleaved passes of the all-workloads command

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "lat_p50_ms": "ms", "lat_tail_ms": "ms",
    "ok_share": "ratio", "peak_rss_mb": "MB", "index_bytes_per_key": "B",
}


def run_pass(name: str, seed: int, seconds: float, scale: workloads.Scale) -> dict[str, Any]:
    """Generate, set up ``setup_repeats`` times, drive, verify, tear down."""
    workload = workloads.WORKLOADS[name]
    env = measure.environment()
    inputs = workload.generate(seed, scale)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    fixture = None
    setups: list[float] = []
    with measure.one_cpu(workload.one_cpu):
        try:
            workload.prepare(inputs, OUT_DIR)
            for _ in range(workload.setup_repeats):
                if fixture is not None:
                    fixture.close()
                    fixture = None
                    gc.collect()
                t0 = time.perf_counter()
                fixture = workload.setup(inputs)
                setups.append(time.perf_counter() - t0)
            result = measure.run_clients(fixture.clients, workload.warmup_s * scale.warmup,
                                         seconds, None)
            result["index_bytes_per_key"] = fixture.index_bytes_per_key()
        finally:
            if fixture is not None:
                fixture.close()
            leaked = workload.cleanup(inputs)
    env["loadavg_end"] = os.getloadavg()[0]
    result.update(workload=name, seed=seed, seconds=seconds, setup_s=statistics.median(setups),
                  setups_s=setups, peak_rss_mb=measure.peak_rss_mb(), one_cpu=workload.one_cpu,
                  leaked_segments=leaked, environment=env)
    return result


def warnings_of(result: dict[str, Any]) -> list[str]:
    out = []
    env = result["environment"]
    if max(env["loadavg"], env["loadavg_end"]) > env["nproc"]:
        out.append(f"loadavg {env['loadavg']:.2f}->{env['loadavg_end']:.2f} exceeds "
                   f"nproc {env['nproc']}: timings are contended")
    thin = min(result["seg_samples"])
    if thin < measure.MIN_SEGMENT_SAMPLES:
        out.append(f"a segment holds only {thin} samples (< {measure.MIN_SEGMENT_SAMPLES}): "
                   "its p95 is weak")
    if result["failed"]:
        out.append(f"{result['failed']} of {result['attempted']} operations answered wrongly")
    out += [f"client error: {e.strip().splitlines()[-1]}" for e in result["errors"]]
    out += [f"leaked shared-memory segment {s}" for s in result["leaked_segments"]]
    return out


def is_correct(result: dict[str, Any]) -> bool:
    return not (result["failed"] or result["errors"] or result["leaked_segments"])


def run_one(args: argparse.Namespace, scale: workloads.Scale) -> int:
    """Contract mode: one workload, in this process, one JSON line last."""
    if args.trace:
        layer, drivers, result = layers.climb([args.workload], args.seed, args.seconds,
                                              scale, OUT_DIR)
        layer.update(drivers[args.workload])
        metrics = {k: (layer[k], unit) for k, (unit, _better) in layers.PER_LAYER.items()}
    else:
        result = run_pass(args.workload, args.seed, args.seconds, scale)
        metrics = {k: (v, UNITS[k]) for k, v in measure.end_to_end([result]).items()}
    for line in warnings_of(result):
        print(f"perfbench: warning: {line}", file=sys.stderr)
    if args.detail:
        Path(args.detail).write_text(json.dumps(result))
    print(f"perfbench: {args.workload} seed={args.seed} env={result['environment']} "
          f"samples/segment={result['seg_samples']} "
          f"setups_s={[round(s, 3) for s in result['setups_s']]}")
    print(json.dumps({
        "correct": is_correct(result),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_set(args: argparse.Namespace, label: str) -> tuple[dict[str, dict[str, float]], bool]:
    """All workloads, ``PASSES`` interleaved passes, one subprocess each."""
    passes: dict[str, list[dict[str, Any]]] = {name: [] for name in workloads.WORKLOADS}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for p in range(PASSES):
        for name in workloads.WORKLOADS:
            detail = OUT_DIR / f"pass-{label}-{name}-{p}.json"
            cmd = [sys.executable, "-m", "perfbench.run", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--detail", str(detail)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} pass {p} exited with code {proc.returncode}")
            passes[name].append(json.loads(detail.read_text()))
    table = {name: measure.end_to_end(runs) for name, runs in passes.items()}
    correct = all(is_correct(r) for runs in passes.values() for r in runs)
    print(f"\n== end-to-end, seed {args.seed}, {PASSES} passes x {args.seconds} s ({label}) ==")
    print(f"environment: {passes['lib_batch'][0]['environment']}")
    for name, metrics in table.items():
        samples = [n for r in passes[name] for n in r["seg_samples"]]
        print(f"{name}  (latency samples per segment: min {min(samples)}, total {sum(samples)})")
        for metric, value in metrics.items():
            print(f"  {metric:<22}{value:>16.4f} {UNITS[metric]}")
        for r in passes[name]:
            for line in warnings_of(r):
                print(f"  warning: {line}")
    return table, correct


def selfcheck(args: argparse.Namespace) -> int:
    """Two full sets of the same code must agree within every bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, ok_a = run_set(args, "a")
    second, ok_b = run_set(args, "b")
    disagreements = 0
    print("\n== selfcheck: second set against first set ==")
    for name in first:
        for metric in spec["end_to_end"]:
            a, b = first[name][metric["name"]], second[name][metric["name"]]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            agrees = worse <= metric["bound"]
            disagreements += not agrees
            print(f"{name:<13}{metric['name']:<22}{a:>14.4f}{b:>14.4f}"
                  f"{worse:>+9.1%} (bound {metric['bound']:.1%}) "
                  f"{'ok' if agrees else 'DISAGREES'}")
    return 0 if ok_a and ok_b and not disagreements else 1


def trace_all(args: argparse.Namespace, scale: workloads.Scale) -> int:
    """One climb of all five ladders, ``driver.*`` for every workload."""
    names = list(workloads.WORKLOADS)
    layer, drivers, result = layers.climb(names, args.seed, args.seconds, scale, OUT_DIR)
    print(f"== per-layer, seed {args.seed} (spans: perfbench/out/trace-<workload>.jsonl) ==")
    for name, (unit, _better) in layers.PER_LAYER.items():
        if name in layer:
            print(f"  {name:<46}{layer[name]:>14.4f} {unit}")
    for workload, metrics in drivers.items():
        print(workload)
        for name, value in metrics.items():
            print(f"  {name:<46}{value:>14.4f} {layers.PER_LAYER[name][0]}")
    for line in warnings_of(result):
        print(f"warning: {line}")
    return 0 if is_correct(result) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.run", description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="2x10^4 keys and 1 s: for the tests, never for numbers")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--detail", help="also write the run's full result to this file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    if args.workload:
        return run_one(args, scale)
    if args.selfcheck:
        return selfcheck(args)
    if args.trace:
        return trace_all(args, scale)
    _table, correct = run_set(args, "run")
    return 0 if correct else 1


def reap_resource_tracker() -> None:
    """Wait for multiprocessing's shared-memory tracker, a process this run
    started (through ``repro.serve.shm``) and would otherwise leave to exit
    on its own just after us."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        reap_resource_tracker()
    sys.exit(code)
