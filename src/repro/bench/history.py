"""Benchmark history: append-only headline-ratio records keyed by git SHA.

``BENCH_history.jsonl`` is the repo's performance memory: every line is
one benchmark run reduced to its **headline ratios** — the
machine-portable numbers each experiment exists to demonstrate (batch
vs binary-search batch for E17, batch speedup for E18, coalescing
speedup for E19, the process-vs-thread ratio for E20).  Ratios, not absolute throughputs: an ops/s figure moves
with the host, but "batched is 30x scalar" transfers across laptops and
CI runners well enough for a 25 % guard band.

Records carry:

* the git SHA the run was produced at (``"unknown"`` outside a repo),
* a **config signature** — the experiment's scale parameters serialized
  canonically — so a smoke run is only ever compared against another
  run of the same shape,
* a ``passed`` flag: :mod:`repro.bench.compare` marks a record that
  *failed* its regression check so it never becomes a baseline, which
  keeps one bad run from ratcheting the baseline downward.
"""

from __future__ import annotations

import datetime
import json
import subprocess
from pathlib import Path

__all__ = [
    "HISTORY_PATH",
    "HEADLINE_KEYS",
    "extract_headlines",
    "config_signature",
    "git_sha",
    "make_record",
    "load_history",
    "append_record",
    "last_baseline",
]

#: Default history file, committed at the repo root.
HISTORY_PATH = "BENCH_history.jsonl"

#: Per-experiment name of the headline ratio inside each results entry.
#: E17's is batch throughput over ``binary-search``'s batch: its old
#: batch-over-own-scalar ``speedup`` moved whenever the scalar path did.
HEADLINE_KEYS = {
    "E17": "vs_binary_batch",
    "E18": "speedup",
    "E19": "speedup",
    "E20": "mp_vs_thread",
    "E21": "load_vs_rebuild",
    "E22": "sublinearity",
    "E23": "tuned_vs_static",
}

#: Top-level artifact fields that describe the machine or the output,
#: not the experiment configuration (``crossover``: E17/E18's measured
#: crossover curves).
_NON_CONFIG_FIELDS = frozenset({"environment", "results", "cpu_count", "crossover"})


def extract_headlines(payload: dict) -> dict[str, float]:
    """Headline ratios of one benchmark artifact, keyed by result row.

    Raises ``KeyError`` for experiments without a registered headline —
    adding an experiment to the guard means adding its ratio name to
    :data:`HEADLINE_KEYS` deliberately.
    """
    experiment = str(payload.get("experiment", ""))
    key = HEADLINE_KEYS[experiment]
    results = payload.get("results", {})
    out: dict[str, float] = {}
    for row_name, row in results.items():
        if isinstance(row, dict) and key in row:
            out[row_name] = float(row[key])
    return out


def config_signature(payload: dict) -> str:
    """Canonical string of the experiment's scale/config parameters.

    Everything top-level except machine metadata and the results — so
    ``E19 n=4000 requests=2500`` never gets compared against
    ``E19 n=100000 requests=20000``.
    """
    config = {
        name: value for name, value in payload.items()
        if name not in _NON_CONFIG_FIELDS
    }
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def git_sha() -> str:
    """Current commit SHA, or ``"unknown"`` when git is unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def make_record(payload: dict, passed: bool, sha: str | None = None) -> dict:
    """One history line for a benchmark artifact."""
    return {
        "sha": git_sha() if sha is None else sha,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "experiment": str(payload.get("experiment", "")),
        "signature": config_signature(payload),
        "headlines": extract_headlines(payload),
        "passed": bool(passed),
    }


def load_history(path: str | Path = HISTORY_PATH) -> list[dict]:
    """All records in file order; a missing file is an empty history."""
    file = Path(path)
    if not file.exists():
        return []
    records = []
    for line in file.read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def append_record(record: dict, path: str | Path = HISTORY_PATH) -> None:
    """Append one record as a JSONL line (creates the file if needed)."""
    with Path(path).open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def last_baseline(records: list[dict], experiment: str,
                  signature: str) -> dict | None:
    """Most recent *passing* record matching experiment and signature.

    Failed records are skipped by construction — a regressed run never
    becomes the bar the next run is measured against.
    """
    for record in reversed(records):
        if (record.get("experiment") == experiment
                and record.get("signature") == signature
                and record.get("passed")):
            return record
    return None
