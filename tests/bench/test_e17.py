"""Tests for E17 (batch-query throughput) and its JSON artifact."""

from __future__ import annotations

import json

import pytest

from repro.bench.batch import (
    CROSSOVER_ROWS, DEFAULT_E17_CROSSOVER, DEFAULT_E17_INDEXES, _drifted, _first_never_losing,
    run_e17,
)
from repro.bench.runner import ONE_DIM_FACTORIES
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


class TestE17CrossoverArm:
    def test_artifact_carries_one_curve_per_kernel_family(self, tmp_path):
        out = tmp_path / "bench.json"
        rows = run_e17(indexes=["binary-search"], smoke=True, out=str(out))
        assert [r["index"] for r in rows] == ["binary-search"]  # rows stay the headline
        payload = json.loads(out.read_text())
        assert set(payload["results"]) == {"binary-search"}
        curves = payload["crossover"]
        assert list(curves) == list(DEFAULT_E17_CROSSOVER)
        for name, curve in curves.items():
            n = len(curve["rows"])
            assert curve["rows"] == list(CROSSOVER_ROWS[:n]) and n >= 2
            assert len(curve["kernel_us"]) == len(curve["scalar_us"]) == n
            assert min(curve["kernel_us"] + curve["scalar_us"]) > 0
            assert curve["batch_crossover"] == type(ONE_DIM_FACTORIES[name]()).batch_crossover
            assert curve["measured"] is None or curve["measured"] in curve["rows"]

    def test_measured_is_the_first_row_count_from_which_the_kernel_never_loses(self):
        rows = [1, 2, 4, 8, 12]
        assert _first_never_losing(rows, [9, 9, 9, 9, 9], [1, 3, 10, 20, 30]) == 4
        # A win the kernel gives back later does not count.
        assert _first_never_losing(rows, [9, 2, 9, 9, 9], [1, 3, 8, 20, 30]) == 8
        assert _first_never_losing(rows, [1, 1, 1, 1, 1], [2, 2, 2, 2, 2]) == 1
        assert _first_never_losing(rows, [1, 1, 1, 1, 9], [2, 2, 2, 2, 2]) is None
        assert _first_never_losing(rows, [5, 5, 5, 5, 5], [1, 1, 1, 1, 5]) == 12  # a tie

    def test_drift_is_more_than_one_row_step(self):
        assert CROSSOVER_ROWS[3:6] == (8, 12, 16)
        assert not _drifted(12, 12)
        assert not _drifted(8, 12) and not _drifted(16, 12)
        assert _drifted(4, 12) and _drifted(24, 12)
        assert _drifted(None, 12)
        assert not _drifted(2, 1) and _drifted(4, 1)


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
