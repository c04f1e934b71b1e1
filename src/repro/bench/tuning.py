"""E23 — self-tuning vs static serving under adversarial drift and skew.

The survey's forward-looking claim is that learned indexes should adapt
when the workload walks away from the build-time distribution.  E23
makes that claim measurable: both arms serve the *same* seeded
:func:`~repro.serve.workload.drifting_phases` schedule — a zipfian
hotspot band that jumps each phase, a read/write mix that flips, and
fresh keys written *inside* the moving band — through identical
:class:`~repro.serve.server.IndexServer` stacks.  The **static** arm
keeps the build-time shard boundaries and index models for the whole
run.  The **tuned** arm attaches a :class:`~repro.tune.engine.Tuner`
and calls :meth:`~repro.tune.engine.Tuner.step` at each phase boundary
(deterministic cadence; the step's wall time is charged to the tuned
arm), letting hot-shard rebalances chase the band and drift-triggered
rebuilds collapse the delta levels the writes pile up.

Headline: ``tuned_vs_static`` — tuned throughput over static throughput
on the identical schedule (p99 ratio rides along).  The tuned arm's
audit log is embedded in ``BENCH_tune.json`` so every re-partition in
the artifact is traceable to the signal that triggered it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.batch import _environment_metadata
from repro.bench.runner import MUTABLE_ONE_DIM_FACTORIES
from repro.data import load_1d
from repro.serve.server import IndexServer
from repro.serve.workload import drifting_phases, run_closed_loop
from repro.tune import TuneConfig, Tuner

__all__ = ["run_e23", "DEFAULT_E23_TUNE"]

#: The E23 tuner configuration.  Rebalance is effectively disabled
#: (imbalance above the 4-shard maximum): a full re-split fits bounds to
#: traffic that has *already moved on* when the hotspot jumps every
#: phase, so under this adversary the winning move is targeted,
#: pressure-gated drift rebuilds — a shard is re-fit only once enough
#: written delta has routed into it to pay for the linear re-fit.
DEFAULT_E23_TUNE = TuneConfig(
    enabled=True,
    imbalance=8.0,
    min_requests=512,
    min_sample=128,
    max_sample=4096,
    drift_threshold=0.3,
    drift_hold=1,
    min_writes=256,
    min_shard_writes=1500,
    cooldown_steps=1,
    seed=0,
)


def _chunks(requests: list, steps_per_phase: int) -> list[list]:
    """Split one phase into ``steps_per_phase`` near-equal chunks."""
    size = max(1, -(-len(requests) // steps_per_phase))
    out = [requests[i:i + size] for i in range(0, len(requests), size)]
    return [chunk for chunk in out if chunk]


def _run_arm(factory, keys, phase_requests, *, tuned: bool, num_shards: int,
             max_batch: int, capacity: int, clients: int,
             pipeline: int, steps_per_phase: int,
             tune_config: TuneConfig) -> dict:
    """Serve every phase on a fresh server; optionally tune mid-phase.

    Each phase is served in ``steps_per_phase`` chunks with a tuner step
    after every chunk (tuned arm only) — detection lags the hotspot by
    one chunk, and an applied re-partition pays off over the *rest of
    the same phase*.  The arm clock starts before the first chunk and
    stops after the last, so the tuned arm pays for its own steps
    (window accounting, policy evaluation, any applied re-partition) on
    the same meter that credits their payoff.
    """
    server = IndexServer(
        factory, num_shards=num_shards, max_batch=max_batch,
        capacity=capacity, cache_size=0,
    ).build(keys)
    tuner = Tuner(server, tune_config, reference=keys) if tuned else None
    phase_ops: list[float] = []
    completed = 0
    shed = 0
    try:
        t0 = time.perf_counter()
        for requests in phase_requests:
            phase_t0 = time.perf_counter()
            phase_done = 0
            for chunk in _chunks(requests, steps_per_phase):
                driven = run_closed_loop(server, chunk, clients=clients,
                                         pipeline=pipeline, batch_submit=True)
                completed += int(driven["completed"])  # type: ignore[call-overload]
                shed += int(driven["shed"])  # type: ignore[call-overload]
                phase_done += int(driven["completed"])  # type: ignore[call-overload]
                if tuner is not None:
                    tuner.step()
            phase_wall = time.perf_counter() - phase_t0
            phase_ops.append(phase_done / phase_wall if phase_wall > 0 else 0.0)
        wall = time.perf_counter() - t0
        stats = server.stats()
    finally:
        if tuner is not None:
            tuner.close()
        server.close()
    latency = stats["latency"]
    arm = {
        "wall_s": wall,
        "completed": completed,
        "shed": shed,
        "ops_per_s": completed / wall if wall > 0 else 0.0,
        "phase_ops_per_s": phase_ops,
        "per_shard_requests": stats["per_shard_requests"],
        "p50_us": latency["p50_us"],  # type: ignore[index]
        "p99_us": latency["p99_us"],  # type: ignore[index]
    }
    if tuner is not None:
        audit = tuner.audit.snapshot()
        arm["audit"] = audit
        arm["actions_applied"] = sum(
            1 for record in audit if record["outcome"] == "applied"
        )
    return arm


def run_e23(n: int = 20000, requests: int = 48000, phases: int = 6,
            steps_per_phase: int = 3, num_shards: int = 4,
            index: str = "dynamic-pgm", dataset: str = "uniform",
            clients: int = 4, pipeline: int = 32,
            max_batch: int = 128, capacity: int = 1 << 20,
            band_frac: float = 0.2,
            zipf_a: float = 1.25, write_low: float = 0.7,
            write_high: float = 0.02, background: float = 0.2,
            dwell: int = 2, seed: int = 1,
            out: str | None = "BENCH_tune.json",
            smoke: bool = False) -> list[dict]:
    """E23: does workload-driven tuning beat a static index under drift?

    Args:
        n: keys in the build-time dataset.
        requests: total workload length (split evenly across phases).
        phases: drift phases (hotspot jumps / mix flips).
        steps_per_phase: chunks each phase is served in, with a tuner
            step after every chunk (tuned arm) — the tuner discovers a
            phase one chunk in and adapts for the remainder.
        num_shards: shard count of both serving stacks.
        index: mutable 1-d factory name (needs insert support).
        dataset: ``load_1d`` dataset name.
        clients / pipeline: closed-loop driver shape.
        max_batch / capacity: identical server knobs for
            both arms (cache disabled — generation-keyed caching would
            blur the index-shape story E23 isolates).
        band_frac: fraction of the key order the hotspot band covers.
        zipf_a: zipf exponent of in-band reads.
        write_low / write_high: the two write ratios the mix flips
            between.  The defaults make the schedule ingest-then-analyze
            — a write burst (0.7) into a band, then a near-pure read
            phase (0.02) over the *same* band (``dwell=2``): the regime
            where piled-up delta actually costs the static arm and a
            burst-end rebuild pays for itself.
        background: fraction of reads routed uniformly over the whole
            keyspace (scan traffic that probes old delta every phase).
        dwell: consecutive phases each band position is held for.
        seed: RNG seed for data and schedule.
        out: JSON artifact path, or ``None``/"" to skip writing.
        smoke: shrink to a seconds-scale CI configuration.

    Returns:
        One row with both arms' numbers and the headline ratio.
    """
    if smoke:
        n = min(n, 8000)
        requests = min(requests, 8000)
        phases = min(phases, 4)
        clients = min(clients, 4)
        pipeline = min(pipeline, 32)
    if index not in MUTABLE_ONE_DIM_FACTORIES:
        raise KeyError(
            f"unknown mutable index {index!r}; "
            f"have {sorted(MUTABLE_ONE_DIM_FACTORIES)}"
        )
    factory = MUTABLE_ONE_DIM_FACTORIES[index]
    keys = load_1d(dataset, n, seed=seed)
    schedule = drifting_phases(keys, requests, seed=seed + 1, phases=phases,
                               band_frac=band_frac, a=zipf_a,
                               write_ratios=(write_low, write_high),
                               background=background, dwell=dwell)
    common = dict(
        num_shards=num_shards, max_batch=max_batch, capacity=capacity,
        clients=clients, pipeline=pipeline,
        steps_per_phase=steps_per_phase, tune_config=DEFAULT_E23_TUNE,
    )
    static = _run_arm(factory, keys, schedule, tuned=False, **common)
    tuned = _run_arm(factory, keys, schedule, tuned=True, **common)
    ratio = (tuned["ops_per_s"] / static["ops_per_s"]
             if static["ops_per_s"] else 0.0)
    p99_ratio = (static["p99_us"] / tuned["p99_us"]
                 if tuned["p99_us"] else 0.0)
    row = {
        "space": "1d",
        "index": index,
        "dataset": dataset,
        "n": n,
        "requests": requests,
        "phases": phases,
        "shards": num_shards,
        "clients": clients,
        "pipeline": pipeline,
        "tuned": tuned,
        "static": static,
        "tuned_vs_static": ratio,
        "p99_ratio": p99_ratio,
    }
    if out:
        payload = {
            "experiment": "E23",
            "dataset": dataset,
            "workload": "drifting",
            "index": index,
            "n": n,
            "requests": requests,
            "phases": phases,
            "steps_per_phase": steps_per_phase,
            "shards": num_shards,
            "clients": clients,
            "pipeline": pipeline,
            "band_frac": band_frac,
            "zipf_a": zipf_a,
            "write_low": write_low,
            "write_high": write_high,
            "background": background,
            "dwell": dwell,
            "seed": seed,
            "environment": _environment_metadata(),
            "results": {
                f"1d/{index}/shards={num_shards}": {
                    key: row[key]
                    for key in ("tuned", "static", "tuned_vs_static",
                                "p99_ratio", "clients", "pipeline")
                }
            },
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return [row]
