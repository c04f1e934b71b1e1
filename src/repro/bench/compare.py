"""Benchmark regression check: artifact headlines vs. committed history.

CLI (wired into CI after the E17/E18/E19/E20 smoke runs)::

    python -m repro.bench.compare BENCH_serve.json --append

Compares the artifact's headline ratios against the last *passing*
record with the same experiment and config signature in
``BENCH_history.jsonl`` and exits non-zero when any headline fell more
than ``--threshold`` (default 25 %).  With ``--append`` the run is
recorded either way — flagged ``passed: false`` on regression so it
never becomes a future baseline.

A missing baseline (first run of a configuration, or a deliberately
changed experiment shape) passes with a notice: the guard compares
like against like or not at all.

A change that moves a headline on purpose re-bases it in the open:
``--rebase "reason"`` records the run as a passing baseline with a
``rebase`` field, so the ledger says why the bar moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.history import (
    HEADLINE_KEYS,
    HISTORY_PATH,
    append_record,
    config_signature,
    extract_headlines,
    last_baseline,
    load_history,
    make_record,
)

__all__ = ["compare_artifact", "main"]

#: Default tolerated relative drop in a headline ratio before failing.
DEFAULT_THRESHOLD = 0.25


def compare_artifact(payload: dict, history: list[dict],
                     threshold: float = DEFAULT_THRESHOLD) -> tuple[list[str], str]:
    """Regression lines (empty when clean) plus a human-readable report.

    A headline regresses when it drops strictly more than ``threshold``
    relative to the baseline value; rows absent from the baseline (new
    contenders) and non-positive baselines are skipped.
    """
    experiment = str(payload.get("experiment", ""))
    if experiment not in HEADLINE_KEYS:
        raise SystemExit(
            f"no headline registered for experiment {experiment!r}; "
            f"have {sorted(HEADLINE_KEYS)}"
        )
    headlines = extract_headlines(payload)
    baseline = last_baseline(history, experiment, config_signature(payload))
    if baseline is None:
        report = (f"{experiment}: no passing baseline for this configuration "
                  f"({len(headlines)} headline rows) — nothing to compare")
        return [], report
    regressions: list[str] = []
    lines = [f"{experiment}: vs baseline {baseline['sha'][:12]} "
             f"({baseline['timestamp']})"]
    for row, value in sorted(headlines.items()):
        old = baseline["headlines"].get(row)
        if old is None or old <= 0:
            lines.append(f"  {row}: {value:.3f} (no baseline row)")
            continue
        change = (value - old) / old
        marker = ""
        if change < -threshold:
            marker = "  << REGRESSION"
            regressions.append(
                f"{row}: {HEADLINE_KEYS[experiment]} {old:.3f} -> {value:.3f} "
                f"({change:+.1%}, limit -{threshold:.0%})"
            )
        lines.append(f"  {row}: {old:.3f} -> {value:.3f} ({change:+.1%}){marker}")
    return regressions, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Check a benchmark artifact's headline ratios against "
                    "the committed history; non-zero exit on regression.",
    )
    parser.add_argument("artifact", help="benchmark JSON artifact (e.g. BENCH_serve.json)")
    parser.add_argument("--history", default=HISTORY_PATH,
                        help=f"history JSONL path (default {HISTORY_PATH})")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="tolerated relative drop (default 0.25)")
    parser.add_argument("--append", action="store_true",
                        help="record this run in the history (flagged failed "
                             "on regression)")
    parser.add_argument("--rebase", metavar="REASON",
                        help="record this run as a passing baseline even on "
                             "regression, storing REASON with it")
    args = parser.parse_args(argv)
    if args.rebase is not None and not args.rebase.strip():
        parser.error("--rebase needs a reason")

    artifact = Path(args.artifact)
    if not artifact.exists():
        print(f"artifact {artifact} does not exist", file=sys.stderr)
        return 2
    payload = json.loads(artifact.read_text())
    history = load_history(args.history)
    regressions, report = compare_artifact(payload, history, args.threshold)
    print(report)
    if args.append or args.rebase:
        record = make_record(payload, passed=not regressions or bool(args.rebase))
        if args.rebase:
            record["rebase"] = args.rebase
        append_record(record, path=args.history)
        print(f"recorded run in {args.history} (passed={record['passed']})")
    if regressions and not args.rebase:
        print(f"\n{len(regressions)} headline regression(s):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
