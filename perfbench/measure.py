"""Closed-loop driver, span recorder and the end-to-end estimators.

Everything here is workload-agnostic: a :class:`Client` cycles a
pre-built pool of ``(input, expected)`` pairs through one callable and
checks every answer; :func:`drive` runs one client per thread for a
warm-up plus a measured interval; :func:`summarize` cuts the measured
interval into one-second segments and reports medians over segments,
which is what makes two runs of the same code agree on a 2-core box
where a single long average drifts by several percent.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

#: Length of one measured segment; rates and tails are medians over these.
SEGMENT_S = 1.0

#: A segment's p95 is only trusted with this many latency samples in it.
MIN_SEGMENT_SAMPLES = 100


@contextlib.contextmanager
def one_cpu(pin: bool) -> Iterator[None]:
    """Confine this thread, and every thread it starts meanwhile, to one CPU.

    CPython threads share one GIL, and on this VM handing it back and
    forth between two vCPUs (either of which the host may deschedule
    while it holds the lock) halves ``serve_cached`` / ``serve_rw``
    throughput and triples the run-to-run spread (``CALIBRATION.md``).
    Workloads whose serving runs in one process are therefore measured
    on one CPU; ``restore_mp``, whose workers are processes, is not.
    """
    if not pin or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Tracer:
    """In-memory span list, written out as JSON lines when the run ends.

    A span is ``(id, name, start, end, parent, window)``: ``parent`` is
    the id of the span that caused it (``None`` for a root) and
    ``window`` is the seeded window the call served, so every rung of
    one window's ladder shares an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()

    def record(self, name: str, start: float, end: float,
               parent: int | None, window: int) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append([span_id, name, start, end, parent, window])
        return span_id

    def close(self, span_id: int, end: float) -> None:
        """Set the end of a span recorded before its children ran."""
        self.spans[span_id][3] = end

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, name, start, end, parent, window in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "window": window,
                }) + "\n")


class Client:
    """One closed-loop caller: next call only after the previous answer.

    ``pool`` holds ``(input, expected)`` pairs built from the seed
    during set-up and is cycled forever; ``call`` is the one client
    call being timed (a window, or a round in ``lib_batch``) and
    ``count_bad(result, expected)`` returns how many of the call's
    ``ops`` operations answered wrongly.  Verification runs after the
    clock stops, so it is outside every latency sample.
    """

    def __init__(self, call: Callable[[object], object],
                 pool: Sequence[tuple[object, object]], ops: int,
                 count_bad: Callable[[object, object], int]) -> None:
        self.call = call
        self.pool = pool
        self.ops = ops
        self.count_bad = count_bad
        self.cursor = 0
        self.tracer: Tracer | None = None
        self.errors: list[str] = []
        #: (completion time, latency in seconds, wrong operations)
        self.samples: list[tuple[float, float, int]] = []

    def step(self) -> float:
        """Make one call, verify it, record the sample; returns its end time."""
        window = self.cursor
        arg, expected = self.pool[window]
        self.cursor = (window + 1) % len(self.pool)
        t0 = time.perf_counter()
        try:
            result = self.call(arg)
        except Exception:
            # The loop must keep running so the failure is counted, not
            # silently ending the client; the traceback is reported.
            t1 = time.perf_counter()
            self.errors.append(traceback.format_exc())
            self.samples.append((t1, t1 - t0, self.ops))
            return t1
        t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record("client.call", t0, t1, None, window)
        self.samples.append((t1, t1 - t0, self.count_bad(result, expected)))
        return t1


def drive(clients: Sequence[Client], warmup_s: float, seconds: float) -> tuple[float, float]:
    """Run every client in its own thread; returns the measured interval.

    All threads leave one barrier together; samples completing inside
    ``[begin + warmup_s, begin + warmup_s + seconds)`` are the measured
    ones (see :func:`summarize`).
    """
    clock: list[float] = []
    barrier = threading.Barrier(len(clients), action=lambda: clock.append(time.perf_counter()))

    def loop(client: Client) -> None:
        barrier.wait()
        end = clock[0] + warmup_s + seconds
        while client.step() < end:
            pass

    threads = [threading.Thread(target=loop, args=(c,), name=f"perfbench-client-{i}")
               for i, c in enumerate(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return clock[0] + warmup_s, clock[0] + warmup_s + seconds


def run_clients(clients: Sequence[Client], warmup_s: float, seconds: float,
                tracer: Tracer | None) -> dict[str, Any]:
    """:func:`drive` + :func:`summarize`, with the CPU the pass burned."""
    driven_before = sum(len(c.samples) * c.ops for c in clients)
    for client in clients:
        client.tracer = tracer
    cpu0 = time.process_time()
    begin, end = drive(clients, warmup_s, seconds)
    cpu_s = time.process_time() - cpu0
    result = summarize(clients, begin, end)
    result["cpu_s"] = cpu_s
    result["driven_ops"] = sum(len(c.samples) * c.ops for c in clients) - driven_before
    return result


def summarize(clients: Sequence[Client], begin: float, end: float) -> dict[str, Any]:
    """Per-segment rates and tails of the samples inside ``[begin, end)``."""
    segments = max(1, int(round((end - begin) / SEGMENT_S)))
    seg_ops = [0.0] * segments
    seg_lat: list[list[float]] = [[] for _ in range(segments)]
    attempted = failed = 0
    for client in clients:
        for done, latency, bad in client.samples:
            # A call's operations are spread evenly over the time it was
            # in flight, so a window straddling a segment boundary counts
            # in both: rates are not quantised to whole windows.
            start = done - latency
            first = max(0, int((start - begin) / SEGMENT_S))
            last = min(segments - 1, int((done - begin) / SEGMENT_S))
            for seg in range(first, last + 1):
                lo = begin + seg * SEGMENT_S
                overlap = min(done, lo + SEGMENT_S) - max(start, lo)
                if overlap > 0:
                    seg_ops[seg] += client.ops * overlap / latency
            if begin <= done < end:
                seg_lat[last].append(latency * 1e3)
                attempted += client.ops
                failed += bad
    return {
        "seg_rate": [ops / SEGMENT_S for ops in seg_ops],
        "seg_p95_ms": [float(np.percentile(lat, 95)) if lat else 0.0 for lat in seg_lat],
        "seg_samples": [len(lat) for lat in seg_lat],
        "lat_ms": [x for lat in seg_lat for x in lat],
        "attempted": attempted,
        "failed": failed,
        "errors": [e for c in clients for e in c.errors][:5],
    }


def end_to_end(passes: Sequence[dict[str, Any]]) -> dict[str, float]:
    """The seven end-to-end metrics from one or more passes of one workload.

    Segments and latency samples of every pass are pooled; ``setup_s``
    is the smallest per-pass value (each pass already reports the median
    of its own repeated set-ups) and ``peak_rss_mb`` the largest.
    """
    rates = [r for p in passes for r in p["seg_rate"]]
    tails = [t for p in passes for t in p["seg_p95_ms"]]
    lats = [x for p in passes for x in p["lat_ms"]]
    attempted = sum(int(p["attempted"]) for p in passes)
    failed = sum(int(p["failed"]) for p in passes)
    return {
        "setup_s": min(float(p["setup_s"]) for p in passes),
        "ops_per_s": statistics.median(rates),
        "lat_p50_ms": statistics.median(lats),
        "lat_tail_ms": statistics.median(tails),
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": max(float(p["peak_rss_mb"]) for p in passes),
        "index_bytes_per_key": float(passes[-1]["index_bytes_per_key"]),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its waited-for children."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment() -> dict[str, Any]:
    """What the numbers were measured on (recorded in every result)."""
    # Not repro.core.artifact.environment_snapshot(): its platform.platform()
    # forks `uname`, and the fork's ru_maxrss (a copy of this process's)
    # would land in peak_rss_mb through RUSAGE_CHILDREN.
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count() or 1,
        "switchinterval": sys.getswitchinterval(),
        "loadavg": os.getloadavg()[0],
    }


def median_of_repeats(fn: Callable[[], object], repeats: int = 5) -> float:
    """Median wall time in seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
