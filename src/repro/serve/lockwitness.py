"""CI driver for the runtime lock-order witness: observe, dump, cross-check.

``python -m repro.serve.lockwitness out.json`` runs a short sanitized
serving workload (the same deterministic shape as the tier-1
cross-validation test: a built two-shard server answering lookups and
taking a write, plus a never-started coalescer forced to shed so the
one thread-backend lock nesting is exercised), then writes the runtime
lock-order graph the witness recorded — adjacency plus first-observation
notes — as a JSON artifact next to the static analyzer's
``--lock-graph`` dump, and exits nonzero if any runtime edge is missing
from the static graph.  The two artifacts diff cleanly in CI because
both use the same group names (``Class.attr``) for nodes.

Requires ``REPRO_SANITIZE=1`` in the environment (set it before Python
starts; lock factories read it at lock-creation time).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core import lockorder, sanitize

__all__ = ["main", "run_witness_workload"]


def run_witness_workload() -> None:
    """Drive the serving stack so the witness observes its lock nestings."""
    from repro.bench.runner import ONE_DIM_FACTORIES
    from repro.serve.coalescer import Coalescer
    from repro.serve.requests import Op, Request
    from repro.serve.server import IndexServer
    from repro.serve.sharding import ShardedStore
    from repro.serve.stats import ServerStats

    factory = ONE_DIM_FACTORIES["b+tree"]
    data = np.sort(np.random.default_rng(7).uniform(0.0, 1e6, 512))

    server = IndexServer(factory, num_shards=2, max_batch=8, cache_size=16)
    server.build(data)
    try:
        for key in data[:64]:
            server.lookup(float(key))
        server.insert(float(data[0]) + 0.5, "v")
    finally:
        server.close()

    # Deterministic shed: with no workers the queue cannot drain, so the
    # second submit records Coalescer._conds -> ServerStats._lock.
    store = ShardedStore(factory, num_shards=1)
    store.build(data)
    coalescer = Coalescer(store, ServerStats(1), max_batch=4, capacity=1)
    coalescer.submit(Request(op=Op.LOOKUP, key=float(data[0])))
    coalescer.submit(Request(op=Op.LOOKUP, key=float(data[0])))
    coalescer.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.lockwitness",
        description="Run a sanitized serving workload and dump the runtime "
                    "lock-order graph; fail if it disagrees with the static one.",
    )
    parser.add_argument("output", type=Path,
                        help="path for the runtime lock-order graph JSON")
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root for the static cross-check")
    args = parser.parse_args(argv)

    if not sanitize.enabled():
        print("lockwitness requires REPRO_SANITIZE=1 in the environment",
              file=sys.stderr)
        return 2

    lockorder.reset()
    run_witness_workload()
    graph = lockorder.order_graph()
    payload = {"edges": graph.snapshot(), "notes": graph.edge_notes()}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")

    from repro.analysis.concurrency import static_lock_graph
    from repro.analysis.engine import build_context

    static_edges = {
        (e["from"], e["to"])
        for e in static_lock_graph(
            build_context(args.root.resolve(), use_registry=False)
        )["edges"]
    }
    runtime_edges = {
        (src, dst) for src, dsts in payload["edges"].items() for dst in dsts
    }
    missing = runtime_edges - static_edges
    print(f"runtime edges: {len(runtime_edges)}; static edges: "
          f"{len(static_edges)}; runtime-only: {len(missing)}")
    if missing:
        for src, dst in sorted(missing):
            print(f"runtime edge {src} -> {dst} is missing from the static "
                  f"lock graph", file=sys.stderr)
        return 1
    if not runtime_edges:
        print("witness observed no lock nesting; workload is broken",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
