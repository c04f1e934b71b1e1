"""Tests for E18 (multi-d batch-query throughput) and its JSON artifact."""

from __future__ import annotations

import json

import pytest

from repro.bench import batch
from repro.bench.batch import DEFAULT_E18_INDEXES, run_e18
from repro.bench.experiments import EXPERIMENTS
from repro.bench.__main__ import main


class TestRunE18:
    def test_smoke_rows_cover_requested_indexes(self, tmp_path):
        out = tmp_path / "BENCH_batch_md.json"
        rows = run_e18(indexes=["zm-index", "kd-tree"], smoke=True, out=str(out))
        assert [r["index"] for r in rows] == ["zm-index", "kd-tree"]
        for row in rows:
            assert row["dataset"] == "uniform"  # smoke trims to one dataset
            assert row["scalar_ops_per_s"] > 0
            assert row["batch_ops_per_s"] > 0
            assert row["speedup"] == pytest.approx(
                row["batch_ops_per_s"] / row["scalar_ops_per_s"]
            )
            # Every query samples an indexed point: all must hit.
            assert row["hits_batch"] == row["batch"]

    def test_range_probe_only_for_overriding_indexes(self, tmp_path):
        rows = run_e18(indexes=["flood", "kd-tree"], smoke=True, out=None)
        by_name = {r["index"]: r for r in rows}
        assert "range_speedup" in by_name["flood"]
        # Batched and looped range queries must agree on result counts.
        assert by_name["flood"]["range_hits"] == by_name["flood"]["range_hits_scalar"]
        assert "range_speedup" not in by_name["kd-tree"]

    def test_json_artifact_shape(self, tmp_path):
        out = tmp_path / "bench_md.json"
        run_e18(indexes=["grid"], datasets="uniform", smoke=True, out=str(out))
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "E18"
        assert payload["n"] <= 4000 and payload["batch"] <= 800
        assert payload["datasets"] == ["uniform"]
        assert set(payload["environment"]) == {"python", "numpy"}
        assert set(payload["results"]) == {"uniform/grid"}
        assert set(payload["results"]["uniform/grid"]) >= {
            "scalar_ops_per_s", "batch_ops_per_s", "speedup",
        }

    def test_multiple_datasets_cross_product(self):
        rows = run_e18(indexes=["grid"], datasets="uniform,skew",
                       smoke=True, out=None)
        assert [(r["dataset"], r["index"]) for r in rows] == [
            ("uniform", "grid"), ("skew", "grid"),
        ]

    def test_unknown_index_raises(self):
        with pytest.raises(KeyError, match="no-such-index"):
            run_e18(indexes=["no-such-index"], smoke=True, out=None)

    def test_defaults_include_vectorized_and_fallback_contenders(self):
        assert {"zm-index", "flood", "grid", "lisa"} <= set(DEFAULT_E18_INDEXES)
        assert "kd-tree" in DEFAULT_E18_INDEXES  # loop-fallback control

    def test_crossover_arm_on_the_first_dataset(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batch, "DEFAULT_E18_CROSSOVER", ("zm-index", "grid"))
        out = tmp_path / "bench_md.json"
        run_e18(indexes=["kd-tree"], datasets="uniform,skew", smoke=True, out=str(out))
        curves = json.loads(out.read_text())["crossover"]
        assert list(curves) == ["zm-index", "grid"]
        for curve in curves.values():
            assert len(curve["rows"]) == len(curve["kernel_us"]) == len(curve["scalar_us"]) >= 2
        assert curves["grid"]["batch_crossover"] == 1


class TestE18Cli:
    def test_registered(self):
        assert "E18" in EXPERIMENTS
        assert "multi-d batch" in EXPERIMENTS["E18"].description

    def test_direct_id_shorthand_with_smoke(self, tmp_path, capsys):
        out = tmp_path / "BENCH_batch_md.json"
        rc = main(["E18", "--smoke", "--param", "indexes=grid",
                   "--param", f"out={out}"])
        assert rc == 0
        assert out.exists()
        assert "grid" in capsys.readouterr().out
