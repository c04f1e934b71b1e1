"""Tests for the benchmark history ledger and the regression-compare CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import compare_artifact, main
from repro.bench.history import (
    HEADLINE_KEYS,
    append_record,
    config_signature,
    extract_headlines,
    last_baseline,
    load_history,
    make_record,
)


def _e19_payload(speedups: dict[str, float], n: int = 4000) -> dict:
    return {
        "experiment": "E19",
        "dataset": "uniform",
        "n": n,
        "requests": 2500,
        "cpu_count": 64,
        "environment": {"python": "3.12.0"},
        "results": {name: {"speedup": value, "clients": 8}
                    for name, value in speedups.items()},
    }


def _e20_payload(ratios: dict[str, float]) -> dict:
    return {
        "experiment": "E20",
        "dataset": "uniform",
        "n": 4000,
        "cpu_count": 8,
        "environment": {},
        "results": {name: {"mp_vs_thread": value, "thread": {}, "process": {}}
                    for name, value in ratios.items()},
    }


class TestHeadlines:
    def test_extracts_registered_ratio_per_row(self):
        payload = _e19_payload({"1d/rmi/shards=2": 3.5, "md/grid/shards=2": 2.0})
        assert extract_headlines(payload) == {
            "1d/rmi/shards=2": 3.5, "md/grid/shards=2": 2.0,
        }

    def test_e20_headline_is_mp_ratio(self):
        payload = _e20_payload({"1d/rmi/shards=4": 1.7})
        assert extract_headlines(payload) == {"1d/rmi/shards=4": 1.7}

    def test_unregistered_experiment_raises(self):
        with pytest.raises(KeyError):
            extract_headlines({"experiment": "E99", "results": {}})

    def test_every_registered_experiment_has_a_key(self):
        assert set(HEADLINE_KEYS) == {"E17", "E18", "E19", "E20", "E21",
                                      "E22", "E23"}


class TestSignature:
    def test_ignores_machine_and_results_fields(self):
        a = _e19_payload({"1d/rmi/shards=2": 3.0})
        b = _e19_payload({"1d/rmi/shards=2": 9.0})
        b["cpu_count"] = 1
        b["environment"] = {"python": "3.10.0"}
        assert config_signature(a) == config_signature(b)

    def test_differs_on_scale_parameters(self):
        a = _e19_payload({}, n=4000)
        b = _e19_payload({}, n=100000)
        assert config_signature(a) != config_signature(b)


class TestHistoryLedger:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record = make_record(_e19_payload({"r": 2.0}), passed=True, sha="abc")
        append_record(record, path=path)
        append_record(record, path=path)
        assert load_history(path) == [record, record]
        assert load_history(tmp_path / "missing.jsonl") == []

    def test_baseline_skips_failed_and_mismatched_records(self, tmp_path):
        good = make_record(_e19_payload({"r": 3.0}), passed=True, sha="good")
        failed = make_record(_e19_payload({"r": 1.0}), passed=False, sha="bad")
        other_shape = make_record(_e19_payload({"r": 3.0}, n=100000),
                                  passed=True, sha="other")
        records = [good, failed, other_shape]
        signature = config_signature(_e19_payload({}))
        baseline = last_baseline(records, "E19", signature)
        # The failed record is newer but can never become the bar.
        assert baseline is good
        assert last_baseline(records, "E20", signature) is None


class TestCompare:
    def test_no_baseline_passes_with_notice(self):
        regressions, report = compare_artifact(_e19_payload({"r": 2.0}), [])
        assert regressions == []
        assert "no passing baseline" in report

    def test_within_threshold_passes(self):
        history = [make_record(_e19_payload({"r": 4.0}), passed=True, sha="x")]
        regressions, report = compare_artifact(_e19_payload({"r": 3.2}), history)
        assert regressions == []
        assert "-20.0%" in report

    def test_regression_beyond_threshold_fails(self):
        history = [make_record(_e19_payload({"r": 4.0}), passed=True, sha="x")]
        regressions, report = compare_artifact(_e19_payload({"r": 2.0}), history)
        assert len(regressions) == 1
        assert "REGRESSION" in report
        assert "speedup 4.000 -> 2.000" in regressions[0]

    def test_new_row_without_baseline_is_skipped(self):
        history = [make_record(_e19_payload({"old": 4.0}), passed=True, sha="x")]
        regressions, report = compare_artifact(
            _e19_payload({"old": 4.1, "new": 0.1}), history)
        assert regressions == []
        assert "no baseline row" in report


class TestCli:
    def _write(self, tmp_path, payload, name="artifact.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_missing_artifact_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2

    def test_first_run_appends_passing_baseline(self, tmp_path, capsys):
        artifact = self._write(tmp_path, _e19_payload({"r": 2.0}))
        history = tmp_path / "hist.jsonl"
        assert main([str(artifact), "--history", str(history), "--append"]) == 0
        records = load_history(history)
        assert len(records) == 1 and records[0]["passed"] is True

    def test_regressed_run_fails_and_never_ratchets(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        good = self._write(tmp_path, _e19_payload({"r": 4.0}), "good.json")
        bad = self._write(tmp_path, _e19_payload({"r": 1.0}), "bad.json")
        assert main([str(good), "--history", str(history), "--append"]) == 0
        assert main([str(bad), "--history", str(history), "--append"]) == 1
        # The failed run was recorded but flagged; a rerun at the bad
        # level still fails because the baseline is the good run.
        records = load_history(history)
        assert [r["passed"] for r in records] == [True, False]
        assert main([str(bad), "--history", str(history)]) == 1
        err = capsys.readouterr().err
        assert "regression" in err

    def test_threshold_flag_widens_the_band(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        good = self._write(tmp_path, _e19_payload({"r": 4.0}), "good.json")
        soso = self._write(tmp_path, _e19_payload({"r": 2.2}), "soso.json")
        assert main([str(good), "--history", str(history), "--append"]) == 0
        assert main([str(soso), "--history", str(history)]) == 1
        assert main([str(soso), "--history", str(history),
                     "--threshold", "0.5"]) == 0

    def test_rebase_records_a_regressed_run_as_the_new_baseline(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        good = self._write(tmp_path, _e20_payload({"r": 0.8}), "good.json")
        moved = self._write(tmp_path, _e20_payload({"r": 0.55}), "moved.json")
        assert main([str(good), "--history", str(history), "--append"]) == 0
        assert main([str(moved), "--history", str(history)]) == 1
        assert main([str(moved), "--history", str(history),
                     "--rebase", "thread arm sped up"]) == 0
        records = load_history(history)
        assert [r["passed"] for r in records] == [True, True]
        assert "rebase" not in records[0]
        assert records[1]["rebase"] == "thread arm sped up"
        assert records[1]["headlines"] == {"r": 0.55}
        # The re-based level is the bar from now on.
        assert main([str(moved), "--history", str(history)]) == 0
        assert main([str(good), "--history", str(history)]) == 0

    def test_rebase_needs_a_reason(self, tmp_path, capsys):
        artifact = self._write(tmp_path, _e20_payload({"r": 0.8}))
        with pytest.raises(SystemExit):
            main([str(artifact), "--history", str(tmp_path / "h.jsonl"), "--rebase", " "])
        assert not (tmp_path / "h.jsonl").exists()
