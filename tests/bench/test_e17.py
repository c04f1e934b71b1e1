"""Tests for E17 (batch-query throughput) and its JSON artifact."""

from __future__ import annotations

import json

import pytest

from repro.bench.batch import DEFAULT_E17_INDEXES, run_e17
from repro.bench.experiments import EXPERIMENTS
from repro.bench.__main__ import main


class TestRunE17:
    def test_smoke_rows_cover_requested_indexes(self, tmp_path):
        out = tmp_path / "BENCH_batch.json"
        rows = run_e17(indexes=["rmi", "binary-search"], smoke=True, out=str(out))
        assert [r["index"] for r in rows] == ["rmi", "binary-search"]
        for row in rows:
            assert row["scalar_ops_per_s"] > 0
            assert row["batch_ops_per_s"] > 0
            assert row["speedup"] == pytest.approx(
                row["batch_ops_per_s"] / row["scalar_ops_per_s"]
            )
            # Parity guarantee: batching must not change the answers.
            assert row["hits_batch"] == row["hits_scalar"]

    def test_json_artifact_shape(self, tmp_path):
        out = tmp_path / "bench.json"
        run_e17(indexes=["pgm"], smoke=True, out=str(out))
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "E17"
        assert payload["n"] <= 5000 and payload["batch"] <= 1000
        assert set(payload["results"]) == {"pgm"}
        assert set(payload["results"]["pgm"]) == {
            "scalar_ops_per_s", "batch_ops_per_s", "speedup",
            "batch_us_per_key", "vs_binary_batch",
        }

    def test_rows_report_the_binary_search_batch_baseline(self, tmp_path):
        out = tmp_path / "bench.json"
        rows = run_e17(indexes=["binary-search", "rmi"], smoke=True, out=str(out))
        by_name = {row["index"]: row for row in rows}
        reference = by_name["binary-search"]["batch_ops_per_s"]
        assert by_name["binary-search"]["vs_binary_batch"] == 1.0
        for row in rows:
            assert row["vs_binary_batch"] == pytest.approx(row["batch_ops_per_s"] / reference)
            assert row["batch_us_per_key"] == pytest.approx(1e6 / row["batch_ops_per_s"])
        results = json.loads(out.read_text())["results"]
        assert results["rmi"]["vs_binary_batch"] == by_name["rmi"]["vs_binary_batch"]

    def test_baseline_is_measured_even_when_not_a_contender(self):
        (row,) = run_e17(indexes=["pgm"], smoke=True, out=None)
        assert row["vs_binary_batch"] > 0

    def test_out_none_skips_artifact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_e17(indexes=["binary-search"], smoke=True, out=None)
        assert not list(tmp_path.iterdir())

    def test_unknown_index_raises(self):
        with pytest.raises(KeyError, match="no-such-index"):
            run_e17(indexes=["no-such-index"], smoke=True, out=None)

    def test_defaults_include_vectorized_and_fallback_contenders(self):
        assert "rmi" in DEFAULT_E17_INDEXES
        assert "b+tree" in DEFAULT_E17_INDEXES  # loop-fallback control


class TestE17Cli:
    def test_registered(self):
        assert "E17" in EXPERIMENTS
        assert "batch" in EXPERIMENTS["E17"].description

    def test_direct_id_shorthand_with_smoke(self, tmp_path, capsys):
        out = tmp_path / "BENCH_batch.json"
        rc = main(["E17", "--smoke", "--param", "indexes=binary-search",
                   "--param", f"out={out}"])
        assert rc == 0
        assert out.exists()
        assert "binary-search" in capsys.readouterr().out

    def test_run_subcommand_equivalent(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        rc = main(["run", "E17", "--smoke", "--param", "indexes=rmi",
                   "--param", f"out={out}", "--csv"])
        assert rc == 0
        assert "rmi" in capsys.readouterr().out
        assert json.loads(out.read_text())["results"].keys() == {"rmi"}
