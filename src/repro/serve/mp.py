"""Multi-process shard execution: batch kernels outside the GIL.

The thread-backed coalescer (PR 5) fuses same-op runs into one batch
kernel call per run, but every kernel still executes under one CPython
GIL: with ``N`` shard workers, at most one is inside numpy's Python-level
glue at a time.  This module moves batch execution into **worker
processes**, one per shard:

* the parent exports each shard's built state
  (:meth:`~repro.core.interfaces.OneDimIndex.export_state`), packs it
  into a shared-memory segment (:func:`repro.serve.shm.pack_state`), and
  spawns a worker that maps the segment zero-copy and reconstructs a
  read-only view (:func:`repro.serve.shm.attach_view`) — no retraining,
  no array copies, ``N`` processes sharing one copy of the data;
* the coalescer's per-shard dispatch threads ship fused same-op windows
  over a ``multiprocessing`` pipe and block on the reply — a blocking
  ``recv`` releases the GIL, so all shards' kernels genuinely run in
  parallel;
* **writes never leave the parent**: the parent's ShardedStore remains
  the single owner of every shard, mutations bump the existing per-shard
  generation counters, and a dirty shard is re-published (snapshot →
  remap → unlink predecessor) before the next window is dispatched to
  its worker — a worker therefore never serves a read issued after a
  write against pre-write state.

Failure containment: a worker that dies mid-window (killed, OOM, bug)
surfaces as :class:`WorkerDied` to the dispatching thread, which the
coalescer converts into typed :class:`~repro.serve.requests.WorkerError`
responses for every in-flight request of that window; the executor
restarts the worker from a fresh snapshot behind the scenes and counts
the restart in :class:`~repro.serve.stats.ServerStats`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from functools import reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.interfaces import IndexStats
from repro.core.lockorder import make_lock
from repro.serve.requests import BATCH_KERNELS, Op, Request
from repro.serve.shm import (
    ShardManifest,
    attach_view,
    pack_artifact,
    pack_state,
    release_segment,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection
    from multiprocessing.shared_memory import SharedMemory

    from repro.serve.sharding import ShardedStore
    from repro.serve.stats import ServerStats

__all__ = ["ProcessShardExecutor", "WorkerDied"]

#: How long the parent waits for a worker reply before declaring it hung.
_REPLY_TIMEOUT = 30.0

#: Poll granularity while waiting on a worker pipe (keeps crash detection
#: prompt without busy-waiting).
_POLL_INTERVAL = 0.05


class WorkerDied(RuntimeError):
    """A shard worker process exited or stopped replying mid-request.

    Raised to the dispatching thread; the coalescer converts it into
    typed :class:`~repro.serve.requests.WorkerError` responses instead
    of letting it unwind through client tickets and windows.
    """

    def __init__(self, shard: int, reason: str) -> None:
        super().__init__(f"shard {shard} worker died: {reason}")
        self.shard = shard
        self.reason = reason


def _shard_worker_main(conn: "Connection", manifest: ShardManifest) -> None:
    """Worker process entry point: serve batch windows from a mapped view.

    The worker owns nothing: it maps the snapshot segment read-only,
    answers ``batch`` messages with the view's batch kernels, remaps on
    ``remap`` (closing its old mapping; the parent unlinks), and reports
    its query-cost counters as *deltas* on ``stats``.  Request-level
    errors travel back pickled inside ``("err", ...)`` replies; the loop
    itself only exits on ``stop``, a closed pipe, or ``crash`` (the
    fault-injection hook used by the serve-mp tests).
    """
    view, shm = attach_view(manifest)
    view.stats = IndexStats()  # type: ignore[attr-defined]  # fresh deltas; size/build stay parent-owned
    generation = manifest.generation
    conn.send(("ready", os.getpid(), generation))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "batch":
                _, op, payload = message
                try:
                    values = _run_batch(view, op, payload)
                    conn.send(("ok", values))
                except BaseException as exc:
                    conn.send(("err", _picklable(exc)))
            elif kind == "remap":
                _, new_manifest = message
                try:
                    new_view, new_shm = attach_view(new_manifest)
                    new_view.stats = view.stats  # type: ignore[attr-defined]  # carry deltas across snapshots
                    view, old_shm = new_view, shm
                    shm = new_shm
                    generation = new_manifest.generation
                    old_shm.close()
                    conn.send(("ok", generation))
                except BaseException as exc:
                    conn.send(("err", _picklable(exc)))
            elif kind == "stats":
                delta = view.stats  # type: ignore[attr-defined]
                view.stats = IndexStats()  # type: ignore[attr-defined]
                conn.send(("ok", delta))
            elif kind == "ping":
                conn.send(("ok", (os.getpid(), generation)))
            elif kind == "crash":
                os._exit(13)
            elif kind == "stop":
                conn.send(("ok", None))
                break
            else:  # pragma: no cover - protocol defect
                conn.send(("err", ValueError(f"unknown message {kind!r}")))
    finally:
        del view
        shm.close()
        conn.close()


def _run_batch(view: object, op: Op, payload: object) -> list[object]:
    """Answer one fused same-op window against the mapped view.

    Replies with a plain list (``contains`` answers as Python bools): an
    object ndarray pickles through the same list plus a reconstruction
    step on each side, so the list is the cheaper wire form.
    """
    kernel = BATCH_KERNELS.get(op)
    if kernel is None:
        raise ValueError(f"op {op!r} is not process-dispatchable")
    return getattr(view, kernel)(np.asarray(payload, dtype=np.float64)).tolist()


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a RuntimeError stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class ProcessShardExecutor:
    """One worker process per shard, fed snapshots over shared memory.

    The executor sits between the coalescer and the store: fused windows
    go to the shard's worker process; everything else (scalar requests,
    fan-out reads, all writes) stays on the parent's store.  Lock
    discipline: each shard's pipe is guarded by its own
    ``threading.Lock`` (one request/reply in flight per worker; the
    coalescer's per-shard dispatch threads are the only callers, so the
    lock is uncontended in steady state), and snapshot exports take the
    store's shard lock so a snapshot never observes a half-applied
    write.

    Args:
        store: the built :class:`~repro.serve.sharding.ShardedStore`.
        stats: the server's :class:`~repro.serve.stats.ServerStats`
            (worker restarts are counted there).
        reply_timeout: seconds to wait for a worker reply before
            declaring the worker hung and restarting it.
    """

    def __init__(self, store: "ShardedStore", stats: "ServerStats",
                 reply_timeout: float = _REPLY_TIMEOUT) -> None:
        self.store = store
        self.stats = stats
        self.reply_timeout = reply_timeout
        n = store.num_shards
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._pipe_locks = [make_lock("ProcessShardExecutor._pipe_locks", rank=s)
                            for s in range(n)]
        # Executor-level lifecycle + observability state; ordered after
        # the pipe locks (_restart reads _closed while a pipe is held),
        # never taken before one.
        self._state_lock = make_lock("ProcessShardExecutor._state_lock")
        self._procs: list[object | None] = [None] * n
        self._conns: list["Connection | None"] = [None] * n
        self._segments: list["SharedMemory | None"] = [None] * n
        self._published: list[int] = [-1] * n
        self._worker_stats = [IndexStats() for _ in range(n)]
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Snapshot every shard and spawn its worker process (idempotent).

        Call *before* starting the coalescer threads so the workers fork
        from a single-threaded parent.
        """
        with self._state_lock:
            if self._started:
                return
            self._started = True
        for shard in range(self.store.num_shards):
            with self._pipe_locks[shard]:
                self._spawn(shard)

    def close(self) -> None:
        """Stop workers, then close and unlink every owned segment.

        Idempotent; the closed flag flips under the state lock *before*
        any pipe lock is taken, so an in-flight dispatch that beats a
        pipe lock here completes (or restarts and raises) normally and a
        dispatch that loses the race fails with a typed
        :class:`WorkerDied` from :meth:`_restart` instead of hanging.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        for shard in range(self.store.num_shards):
            with self._pipe_locks[shard]:
                conn = self._conns[shard]
                proc = self._procs[shard]
                if conn is not None:
                    try:
                        conn.send(("stop",))
                        self._recv_reply(shard, timeout=2.0)
                    except Exception:
                        pass
                    conn.close()
                    self._conns[shard] = None
                if proc is not None:
                    proc.join(timeout=2.0)  # type: ignore[attr-defined]
                    if proc.is_alive():  # type: ignore[attr-defined]
                        proc.kill()  # type: ignore[attr-defined]
                        proc.join(timeout=2.0)  # type: ignore[attr-defined]
                    self._procs[shard] = None
                self._retire_segment(shard)

    def __enter__(self) -> "ProcessShardExecutor":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- snapshot publication ---------------------------------------------
    def _snapshot(self, shard: int) -> ShardManifest:
        """Export + pack one shard under its store lock; owns the segment.

        Replaces (closes **and unlinks**) any previously owned segment
        for the shard after the new one is packed, so at most two
        snapshots of a shard ever coexist and none outlive the executor.

        Shards that are still byte-identical to an on-disk artifact
        (restored via ``from_snapshot`` and unwritten since) are packed
        straight from the artifact's blocks file — the parent never re-exports
        state or touches the payload pickle on that path.
        """
        source, state, generation = self.store.snapshot_source(shard)
        if source is not None:
            manifest, segment = pack_artifact(source, generation)
        else:
            assert state is not None
            manifest, segment = pack_state(state, generation)
        old = self._segments[shard]
        self._segments[shard] = segment
        self._published[shard] = generation
        if old is not None:
            release_segment(old)
        return manifest

    def _spawn(self, shard: int) -> None:
        """Start (or restart) one shard worker from a fresh snapshot."""
        manifest = self._snapshot(shard)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, manifest),
            name=f"serve-mp-shard-{shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[shard] = proc
        self._conns[shard] = parent_conn
        # Startup handshake without the restart-on-death machinery: a
        # worker that cannot even start must fail loudly, not respawn in
        # a loop.
        deadline = time.monotonic() + self.reply_timeout
        while True:
            try:
                if parent_conn.poll(_POLL_INTERVAL):
                    kind = parent_conn.recv()[0]
                    if kind != "ready":  # pragma: no cover - protocol defect
                        raise WorkerDied(shard, f"unexpected startup reply {kind!r}")
                    return
            except (EOFError, OSError):
                raise WorkerDied(shard, "worker closed its pipe at startup") from None
            if not proc.is_alive():
                raise WorkerDied(
                    shard, f"worker exited at startup (code {proc.exitcode})"
                )
            if time.monotonic() > deadline:  # pragma: no cover - hung spawn
                proc.kill()
                raise WorkerDied(shard, "worker did not become ready in time")

    def _sync_shard(self, shard: int) -> None:
        """Re-publish a dirty shard before dispatching to its worker.

        The store bumps ``generations[shard]`` under the shard lock on
        every write; comparing against the last published generation
        here (with the pipe lock held) guarantees a worker never answers
        a post-write read from pre-write state.
        """
        if self.store.generations[shard] == self._published[shard]:
            return
        manifest = self._snapshot(shard)
        conn = self._conns[shard]
        assert conn is not None
        conn.send(("remap", manifest))
        kind, value = self._recv_reply(shard, timeout=self.reply_timeout)
        if kind == "err":
            raise WorkerDied(shard, f"remap failed: {value!r}")

    # -- dispatch ----------------------------------------------------------
    def execute(self, request: Request) -> object:
        """Scalar fallback: runs on the parent store (always current)."""
        return self.store.execute(request)

    def execute_columns(self, shard: int, op: Op, column: np.ndarray,
                        version: int | None = None) -> np.ndarray:
        """Ship one fused same-op run's column to the shard's worker process.

        Same contract as :meth:`ShardedStore.execute_columns` (keys or
        points in, aligned object ndarray out, ``version`` the bounds
        version the run was routed under).  The dispatching thread
        blocks on the pipe reply — releasing the GIL — while the worker
        runs the batch kernel against its mapped snapshot.  Raises
        :class:`WorkerDied` (after restarting the worker) if the process
        dies or stops replying; request-level exceptions raised inside
        the worker re-raise here unchanged, so the process backend fails
        identically to the thread backend.

        A tuner rebalance may have moved some keys off this shard while
        the run waited: :meth:`ShardedStore.reroute` re-routes the run
        when the bounds version has moved since ``version``, stray rows
        fall back to parent-side scalar execution (which re-routes
        safely), and the whole dispatch goes round again if the version
        moves before the post-sync check under the pipe lock — a version
        match *after* :meth:`_sync_shard` proves the worker's snapshot
        and the routing describe the same partition.
        """
        while True:
            version, kept = self.store.reroute(shard, column, version)
            shipped = column if kept is None else column[kept]
            with self._pipe_locks[shard]:
                self._guard_alive(shard)
                self._sync_shard(shard)
                if self.store.bounds_version != version:
                    continue  # rebalance mid-dispatch: re-route, re-sync
                conn = self._conns[shard]
                assert conn is not None
                try:
                    conn.send(("batch", op, shipped))
                except (BrokenPipeError, OSError) as exc:
                    self._restart(shard)
                    raise WorkerDied(shard, f"pipe broke on send: {exc}") from None
                kind, value = self._recv_reply(shard, timeout=self.reply_timeout)
            break
        if kind == "err":
            assert isinstance(value, BaseException)
            raise value
        # fromiter keeps each answer one object (a tuple value stays a tuple).
        values = np.fromiter(value, dtype=object, count=len(shipped))
        if kept is None:
            return values
        return self.store.merge_moved(op, column, kept, values)

    def execute_batch(self, shard: int, op: Op,
                      requests: Sequence[Request]) -> list[object]:
        """:meth:`execute_columns` for a run given as ``Request`` objects."""
        return self.execute_columns(
            shard, op, self.store.request_column(op, requests)).tolist()

    def _guard_alive(self, shard: int) -> None:
        """Restart a worker found dead before any bytes are committed."""
        proc = self._procs[shard]
        if proc is None or not proc.is_alive():  # type: ignore[attr-defined]
            self._restart(shard)

    def _recv_reply(self, shard: int, timeout: float) -> tuple:
        """Wait for one reply, detecting worker death promptly.

        Polls the pipe in short intervals so a killed worker is noticed
        within ``_POLL_INTERVAL`` rather than after the full timeout; on
        death or timeout the worker is restarted from a fresh snapshot
        and :class:`WorkerDied` is raised to the caller.
        """
        conn = self._conns[shard]
        assert conn is not None
        proc = self._procs[shard]
        deadline = time.monotonic() + timeout
        while True:
            try:
                if conn.poll(_POLL_INTERVAL):
                    return conn.recv()
            except (EOFError, OSError):
                self._restart(shard)
                raise WorkerDied(shard, "pipe closed mid-reply") from None
            if proc is not None and not proc.is_alive():  # type: ignore[attr-defined]
                code = proc.exitcode  # type: ignore[attr-defined]
                self._restart(shard)
                raise WorkerDied(shard, f"process exited with code {code}")
            if time.monotonic() > deadline:
                self._restart(shard)
                raise WorkerDied(shard, f"no reply within {timeout:.1f}s")

    def _restart(self, shard: int) -> None:
        """Tear down a dead worker and spawn a successor (counted in stats)."""
        with self._state_lock:
            closed = self._closed
        if closed:
            raise WorkerDied(shard, "executor is closed")
        proc = self._procs[shard]
        conn = self._conns[shard]
        if conn is not None:
            conn.close()
            self._conns[shard] = None
        if proc is not None:
            if proc.is_alive():  # type: ignore[attr-defined]
                proc.kill()  # type: ignore[attr-defined]
            proc.join(timeout=2.0)  # type: ignore[attr-defined]
            self._procs[shard] = None
        self._spawn(shard)
        self.stats.record_worker_restart()

    # -- fault injection / introspection -----------------------------------
    def debug_crash(self, shard: int) -> None:
        """Ask a worker to die abruptly (``os._exit``) — test hook only."""
        with self._pipe_locks[shard]:
            conn = self._conns[shard]
            if conn is not None:
                conn.send(("crash",))

    def worker_generations(self) -> list[int]:
        """Each worker's currently mapped snapshot generation (via ping)."""
        out: list[int] = []
        for shard in range(self.store.num_shards):
            with self._pipe_locks[shard]:
                self._guard_alive(shard)
                conn = self._conns[shard]
                assert conn is not None
                conn.send(("ping",))
                kind, value = self._recv_reply(shard, timeout=self.reply_timeout)
            out.append(int(value[1]) if kind == "ok" else -1)
        return out

    def index_stats(self) -> IndexStats:
        """Fold of worker-side query-cost deltas across all shards.

        Drains each live worker's counters (a worker restarting loses at
        most one drain window of counters — acceptable for observability)
        and accumulates them per shard, so the fold is monotone across
        calls.  Size and build-time stay zero in worker deltas; the
        parent store owns those.
        """
        for shard in range(self.store.num_shards):
            with self._pipe_locks[shard]:
                conn = self._conns[shard]
                proc = self._procs[shard]
                if conn is None or proc is None or not proc.is_alive():  # type: ignore[attr-defined]
                    continue
                try:
                    conn.send(("stats",))
                    kind, value = self._recv_reply(shard, timeout=self.reply_timeout)
                except (WorkerDied, OSError):
                    continue
            if kind == "ok" and isinstance(value, IndexStats):
                with self._state_lock:
                    self._worker_stats[shard] = \
                        self._worker_stats[shard].merge(value)
        with self._state_lock:
            return reduce(IndexStats.merge, list(self._worker_stats), IndexStats())

    # -- internal ----------------------------------------------------------
    def _retire_segment(self, shard: int) -> None:
        """Release (close + unlink) the shard's owned segment, if any."""
        segment = self._segments[shard]
        if segment is not None:
            release_segment(segment)
            self._segments[shard] = None
