"""Checks on the benchmark itself (not part of tier-1).

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
Everything here uses ``--smoke`` sizes (2x10^4 keys, 1 s): the numbers
are meaningless, the names, units, oracles and hygiene are not.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, workloads  # noqa: E402
from repro.serve.shm import list_repro_segments  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_BUDGET_S = 30.0

#: Counts that must repeat bit-for-bit for one seed.
EXACT = [
    "index.model_predictions_per_lookup", "index.corrections_per_lookup",
    "index.nodes_visited_per_lookup", "index.keys_scanned_per_range",
    "mp.request_pickle_bytes_per_req", "mp.reply_pickle_bytes_per_req",
    "artifact.bytes_per_key",
]


def run_smoke(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < SMOKE_BUDGET_S, f"{workload} smoke took {elapsed:.1f} s"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_meets_the_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_lists_what_the_code_emits() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload: str) -> None:
    result = run_smoke(workload, seed=1, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert list_repro_segments() == []
    leftovers = [p.name for p in (ROOT / "perfbench" / "out").iterdir() if p.is_dir()]
    assert leftovers == [], leftovers


def test_traced_smoke_run_emits_every_per_layer_metric_and_exact_counts_repeat() -> None:
    first = run_smoke("serve_read", seed=1, trace=1)
    again = run_smoke("serve_read", seed=1, trace=1)
    other = run_smoke("serve_read", seed=2, trace=1)
    assert first["correct"] is True and first["failed"] == 0
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in EXACT:
        assert first["metrics"][name] == again["metrics"][name], name
    assert any(first["metrics"][n] != other["metrics"][n] for n in EXACT)
    rungs = first["metrics"]
    assert (rungs["sharding.kernel_us_per_req"]["value"]
            <= rungs["sharding.execute_batch_us_per_req"]["value"]
            <= rungs["server.serve_window_us_per_req"]["value"])
    assert rungs["mp.worker_restarts"]["value"] == 0 and rungs["coalescer.shed_share"]["value"] == 0
    for workload in workloads.WORKLOADS:
        lines = (ROOT / "perfbench" / "out" / f"trace-{workload}.jsonl").read_text().splitlines()
        span = json.loads(lines[0])
        assert set(span) == {"id", "name", "start", "end", "parent", "window"}
    names = {json.loads(line)["name"] for line in
             (ROOT / "perfbench" / "out" / "trace-serve_read.jsonl").read_text().splitlines()}
    assert {"ladder", "sharding.execute_batch", "server.serve_window", "client.call"} <= names


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_inputs_come_from_the_seed_alone(workload: str) -> None:
    def fingerprint(seed: int) -> list:
        inputs = workloads.WORKLOADS[workload].generate(seed, workloads.SMOKE)
        data = inputs.keys if hasattr(inputs, "keys") else inputs.points
        pool = inputs.pool if hasattr(inputs, "pool") else inputs.pools[0]
        first = pool[0][0]
        return [float(np.sum(data)), repr(first)[:2000] if isinstance(first, list)
                else float(np.sum(first.rmi))]

    assert fingerprint(7) == fingerprint(7)
    assert fingerprint(7) != fingerprint(8)


def test_serve_rw_pool_is_cyclic_and_read_your_writes() -> None:
    """Replaying the pool against a dict model gives the expected answers
    on every cycle: deletes always find their key, live keys are read back."""
    workload = workloads.WORKLOADS["serve_rw"]
    inputs = workload.generate(3, workloads.SMOKE)
    for client, pool in enumerate(inputs.pools):
        model = {float(k): i for i, k in enumerate(inputs.keys)}
        model.update({r.key: r.value for r in inputs.prefill})
        size = len(model)
        for _cycle in range(2):
            for requests, expected in pool:
                for request, want in zip(requests, expected):
                    if request.op.value == "insert":
                        model[request.key] = request.value
                    elif request.op.value == "delete":
                        assert want is True and model.pop(request.key, None) is not None
                    elif request.op.value == "lookup":
                        assert model.get(request.key) == want
                assert abs(len(model) - size) <= 0.01 * size
            assert len(model) == size, client


def test_fails_without_a_result_where_the_source_is_missing(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "lib_batch", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
