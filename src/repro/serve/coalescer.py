"""Request coalescing: scalar submissions drained as vectorized batches.

PR 1 and PR 2 showed that the dominant cost of serving one request at a
time from Python is interpreter overhead, not index math — the batch
kernels (``lookup_batch``, ``point_query_batch``) answer hundreds of
queries for roughly the price of one scalar call.  The coalescer turns
that observation into a serving discipline: concurrent clients submit
*scalar* requests, each shard owns a FIFO queue, and a worker thread per
shard drains whatever is queued when it wakes, never waiting for more,
and fuses consecutive runs of the same coalescable operation into one
batch-kernel call: rows that arrive while it is busy fuse next drain.

The unit of work is the **run** (:class:`_Run`), not the request: one
same-op stretch of one submission bound for one shard, held as columns
— the op, a float64 key-or-point column, the submission slots those
rows answer, the completion sink and the submitted stamp.  A window is
routed once, as columns (:meth:`ShardedStore.route_columns`), split into
runs with one stable ``argsort`` and enqueued under one condition take
per shard; a worker concatenates the columns of consecutive same-op
runs, makes one kernel call and hands every run its slice of the
answers in one ``complete_many``.  No per-request object exists between
``submit_window`` and the kernel.  Each run carries the store's
``bounds_version`` read before it was routed; the executor routes it
again only if a rebalance has moved that version since, so a point is
routed once on the way in and not again at dispatch.

Ordering: each shard queue is strict FIFO, a window's rows keep their
submission order inside each shard (the ``argsort`` is stable), and
every non-coalescable request (range, kNN, insert, delete) is a run of
its own.  A drained batch without writes fuses only *consecutive* runs
of the same coalescable operation.  A batch with writes first answers
every coalescable read that no *earlier* write in the batch touches —
such a read commutes with every write before it — as one kernel call
per op; the conflicting reads, ranges and kNN then keep strict queue
order around the writes, and each stretch of consecutive writes is
applied under one shard-lock take
(:meth:`~repro.serve.sharding.ShardedStore.execute_writes`).  Either
way per-key program order is preserved: a client that submits
``insert(k)`` then ``lookup(k)`` to the same shard observes its own
write, batching or not.

Admission control: queues are bounded, in requests.  A submission that
finds its shard queue full is answered immediately with
:class:`~repro.serve.requests.Overloaded` (a response, not an
exception) and counted in :attr:`ServerStats.shed`; a run that only
partly fits is split, its head queued and its tail shed.

Shutdown: :meth:`Coalescer.close` is idempotent and never drops a
queued request silently — the stopping flag flips under every shard's
condition (so a racing ``submit`` either enqueues before the flag and
is drained, or observes it and raises), workers drain their queues
before exiting and are joined with a bounded timeout, and any requests
left behind by a worker that would not die in time are served
synchronously by the closing thread.
"""

from __future__ import annotations

import threading
import time
from _thread import LockType, allocate_lock
from collections import deque
from typing import Callable, Sequence

import numpy as np

from repro.core.lockorder import make_condition, make_lock
from repro.serve.mp import ProcessShardExecutor, WorkerDied
from repro.serve.requests import (
    COALESCABLE_OPS,
    OPS_BY_CODE,
    WRITE_OPS,
    Op,
    Overloaded,
    Request,
    Response,
    WorkerError,
)
from repro.serve.sharding import ShardedStore
from repro.serve.stats import ServerStats

__all__ = ["Coalescer", "Ticket", "Window"]

#: Per ``Op.code``: does the op fuse into batch-kernel calls, does it
#: write (a tuple index is cheaper than hashing an enum member per run).
_IS_READ = tuple(op in COALESCABLE_OPS for op in OPS_BY_CODE)
_IS_WRITE = tuple(op in WRITE_OPS for op in OPS_BY_CODE)
_FUSABLE = np.array(_IS_READ)

#: The slot column of every single-request run (never written to).
_SLOT0 = np.zeros(1, dtype=np.intp)


def _common_version(runs: Sequence["_Run"]) -> int | None:
    """The bounds version every run was routed under, or ``None`` when
    they differ (the executor then re-routes every row)."""
    version = runs[0].version
    return version if all(run.version == version for run in runs) else None


def _filled(count: int, value: object) -> np.ndarray:
    """Object column holding ``value`` ``count`` times, whatever its type
    (``fill`` stores a list or tuple as one object, never broadcasts it)."""
    out = np.empty(count, dtype=object)
    out.fill(value)
    return out


class Ticket:
    """One request's completion: ``result(timeout=None)`` and ``done()``.

    The scalar path's stand-in for the standard library's future, which
    builds a condition variable (an ``RLock`` plus a waiter list) per
    request and fills the cyclic GC's young generation with them.  A
    pending ticket holds one raw lock, the *latch*, acquired when the
    ticket is made and released exactly once, by the completing worker;
    ``result`` blocks by acquiring the latch and hands it straight back
    (so every waiter wakes, one after the other) without taking any
    other lock in between.  The latch is a one-shot signal, not a mutex
    around shared state, so it is not a lockorder-tracked lock: its
    acquire at creation and its release at completion never block, and
    the one blocking acquire (in ``result``) is released before
    anything else runs, so it can never close a lock-order cycle.  A
    ticket built with its response (a cache hit, a shed) holds no lock
    at all.

    Lock-free: the completer stores the outcome, then clears the latch
    reference, then releases it; under the GIL a reader that sees no
    latch (``done()``) therefore sees the outcome.

    ``result`` returns the :class:`Response` (or a typed failure such
    as :class:`Overloaded` / :class:`WorkerError`, passed through as a
    value), re-raises a request's exception on every call, and raises
    the builtin :class:`TimeoutError` when ``timeout`` seconds pass
    first.
    """

    __slots__ = ("_latch", "_response", "_error")

    def __init__(self, response: Response | None = None) -> None:
        self._response = response
        self._error: BaseException | None = None
        if response is None:
            latch = allocate_lock()
            latch.acquire()
            self._latch: LockType | None = latch
        else:
            self._latch = None

    def done(self) -> bool:
        """True once the ticket holds its response or exception."""
        return self._latch is None

    def result(self, timeout: float | None = None) -> Response:
        """Block until completion; the response, or re-raise the failure."""
        latch = self._latch
        if latch is not None:
            if not latch.acquire(True, -1 if timeout is None else max(timeout, 0.0)):
                raise TimeoutError(f"ticket not done after {timeout} s")
            latch.release()
        if self._error is not None:
            raise self._error
        return self._response  # type: ignore[return-value]

    def _finish(self, response: Response | None, error: BaseException | None) -> None:
        """Store the outcome, then open the latch (once per ticket)."""
        latch = self._latch
        self._response = response
        self._error = error
        self._latch = None
        latch.release()  # type: ignore[union-attr]


class Window:
    """Completion sink for one pipelined submission window.

    Workers store each run's answers into its slots with one
    fancy-index assignment and one counted decrement; the last
    completion sets one event — versus a :class:`Ticket` (own latch,
    ``Response`` wrapper) per request on the scalar path.
    ``wait`` returns the slots as a plain list; shed requests hold
    :class:`Overloaded` instances, failures re-raise the first recorded
    exception.
    """

    __slots__ = ("results", "_remaining", "_event", "_lock", "_error")

    def __init__(self, size: int) -> None:
        self.results = np.empty(size, dtype=object)
        self._remaining = size
        self._event = threading.Event()
        self._lock = make_lock("Window._lock")
        self._error: BaseException | None = None
        if size == 0:
            self._event.set()

    def complete_many(self, slots: np.ndarray, values: object) -> None:
        """Store one run's answers: ``values`` is an object column aligned
        with ``slots`` (or one value for all of them)."""
        self.results[slots] = values
        with self._lock:
            self._remaining -= len(slots)
            if self._remaining == 0:
                self._event.set()

    def fail_many(self, slots: np.ndarray, error: BaseException) -> None:
        with self._lock:
            if self._error is None:
                self._error = error
        self.complete_many(slots, None)

    def wait(self) -> list[object]:
        self._event.wait()
        with self._lock:
            error = self._error
        if error is not None:
            raise error
        return self.results.tolist()


class _Tickets:
    """Completion sink resolving one :class:`Ticket` per slot.

    Results are wrapped in :class:`Response`; typed failure responses
    (:class:`Overloaded`, :class:`WorkerError`) pass through unwrapped
    so clients can branch on them.  ``callback`` runs in the worker
    thread with each (immutable) response before its ticket resolves:
    the server caches that very object, so a hit allocates no response.
    """

    __slots__ = ("tickets", "callback")

    def __init__(self, tickets: list[Ticket],
                 callback: Callable[[Response], None] | None = None) -> None:
        self.tickets = tickets
        self.callback = callback

    def complete_many(self, slots: np.ndarray, values: np.ndarray) -> None:
        tickets = self.tickets
        callback = self.callback
        for slot, value in zip(slots.tolist(), values.tolist()):
            if isinstance(value, Response) and not value.ok:
                tickets[slot]._finish(value, None)
            else:
                response = Response(value=value)
                if callback is not None:
                    callback(response)
                tickets[slot]._finish(response, None)

    def fail_many(self, slots: np.ndarray, error: BaseException) -> None:
        for slot in slots.tolist():
            self.tickets[slot]._finish(None, error)


class _Run:
    """One same-op stretch of one submission, bound for one shard.

    ``column`` holds the rows' keys (or points) as float64 — what the
    batch kernels consume — and ``slots`` the positions in ``requests``
    (and in ``sink``) those rows belong to.  ``version`` is the store's
    bounds version read before the rows were routed (``None`` if not
    known): the executor re-routes the rows only when it has moved.  A
    coalescable run of any length can be split and fused with its
    same-op neighbours; every other op forms a run of length 1 that
    executes ``requests[slot]`` through the scalar store path, as does
    a coalescable run that ends up alone in its batch.
    """

    __slots__ = ("op", "column", "slots", "sink", "submitted", "requests", "version")

    def __init__(self, op: Op, column: np.ndarray, slots: np.ndarray,
                 sink: "Window | _Tickets", submitted: float,
                 requests: Sequence[Request], version: int | None) -> None:
        self.op = op
        self.column = column
        self.slots = slots
        self.sink = sink
        self.submitted = submitted
        self.requests = requests
        self.version = version

    def split(self, count: int) -> tuple["_Run", "_Run"]:
        """The first ``count`` rows and the rest, as two runs."""
        return (
            _Run(self.op, self.column[:count], self.slots[:count],
                 self.sink, self.submitted, self.requests, self.version),
            _Run(self.op, self.column[count:], self.slots[count:],
                 self.sink, self.submitted, self.requests, self.version),
        )

    def select(self, rows: np.ndarray) -> "_Run":
        """The rows picked by ``rows`` (a mask or positions), as a run."""
        return _Run(self.op, self.column[rows], self.slots[rows],
                    self.sink, self.submitted, self.requests, self.version)

    def resolve(self, value: object) -> None:
        """Answer every row with the same ``value`` (typed failures)."""
        self.sink.complete_many(self.slots, _filled(len(self.slots), value))


class Coalescer:
    """Per-shard run queues drained by batch-dispatching workers.

    Args:
        store: the built :class:`ShardedStore` requests execute against.
        stats: shared :class:`ServerStats` sink.
        max_batch: most requests drained into one batch-kernel call;
            ``None`` (the default) drains the whole queue, which
            ``capacity`` bounds; ``1`` disables coalescing (every
            request runs scalar), which is exactly the E19 baseline
            configuration.
        capacity: per-shard queue bound (in requests) for admission
            control.
        executor: optional
            :class:`~repro.serve.mp.ProcessShardExecutor`; when set,
            fused same-op runs execute in that shard's worker *process*
            (the dispatch thread blocks on the pipe, releasing the GIL)
            instead of on the store in-thread.  Scalar requests and
            writes always stay on the store.
    """

    def __init__(self, store: ShardedStore, stats: ServerStats,
                 max_batch: int | None = None, capacity: int = 4096,
                 executor: ProcessShardExecutor | None = None) -> None:
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.store = store
        self.stats = stats
        self.executor = executor
        self.max_batch = capacity if max_batch is None else max_batch
        self.capacity = capacity
        self._queues: list[deque[_Run]] = [deque() for _ in range(store.num_shards)]
        # Queued *requests* per shard (a queue's length counts runs);
        # read and written under the shard's condition.
        self._depths = [0] * store.num_shards
        self._conds = [make_condition("Coalescer._conds", rank=s)
                       for s in range(store.num_shards)]
        self._workers: list[threading.Thread] = []
        self._stopping = False

    # -- client side -------------------------------------------------------
    def submit(self, request: Request,
               callback: Callable[[Response], None] | None = None,
               home: int | None = None, version: int | None = None) -> Ticket:
        """Enqueue ``request`` on its home shard; resolve with a Response.

        Returns a :class:`Ticket` that resolves to :class:`Response` (or
        :class:`Overloaded` if the shard queue was full — already
        resolved in that case, no waiting).  ``callback`` runs in the
        worker thread with the :class:`Response` before the ticket
        resolves; the server uses it to fill the result cache.  ``home``
        is the request's home shard when the caller has already routed
        it (the server does, to build the cache key), and ``version``
        the store's bounds version it read before that routing.
        """
        if home is None:
            version = self.store.bounds_version
            shards = self.store.route(request)
            home = shards[0] if shards else 0
        ticket = Ticket()
        column = np.array(
            [request.point if self.store.multi_dim else request.key], dtype=np.float64)
        self._admit(home, [_Run(request.op, column, _SLOT0, _Tickets([ticket], callback),
                                time.perf_counter(), (request,), version)], 1)
        return ticket

    def submit_many(self, requests: Sequence[Request]) -> list[Ticket]:
        """Enqueue a window of requests, one :class:`Ticket` each.

        Admission is the same columnar path as :meth:`submit_window`;
        only the completion sink differs.  Both E19 arms use this path,
        so the measured gap is purely the execution batching.  Requests
        that find their shard queue full resolve immediately to
        :class:`Overloaded`.
        """
        tickets = [Ticket() for _ in requests]
        self._enqueue(requests, _Tickets(tickets))
        return tickets

    def submit_window(self, requests: Sequence[Request]) -> Window:
        """Enqueue a window completing into one shared :class:`Window`.

        The cheapest submission path: slot-array completion instead of a
        :class:`Ticket` per request.  ``wait()`` on the returned window gives
        the raw result values in submission order (shed requests hold
        :class:`Overloaded`).
        """
        window = Window(len(requests))
        self._enqueue(requests, window)
        return window

    def _enqueue(self, requests: Sequence[Request], sink: "Window | _Tickets") -> None:
        """Route a window once, cut it into runs, enqueue them per shard.

        Per-client, per-shard FIFO order is preserved: the stable
        ``argsort`` keeps each shard's rows in submission order, and a
        new run starts wherever the shard or the op changes and at every
        non-coalescable row.  Raises ``RuntimeError`` if the coalescer
        is closed; shard groups enqueued before the closed flag was
        observed are still drained and resolved (nothing queued is ever
        dropped).
        """
        count = len(requests)
        if count == 0:
            return
        now = time.perf_counter()
        version = self.store.bounds_version
        codes, homes, column = self.store.route_columns(requests)
        order = np.argsort(homes, kind="stable")
        homes = homes[order]
        codes = codes[order]
        cuts = np.flatnonzero(
            (homes[1:] != homes[:-1]) | (codes[1:] != codes[:-1]) | ~_FUSABLE[codes[1:]]
        ) + 1
        starts = [0, *cuts.tolist()]
        by_shard: dict[int, list[_Run]] = {}
        for start, stop, shard, code in zip(
                starts, [*starts[1:], count], homes[starts].tolist(), codes[starts].tolist()):
            rows = order[start:stop]
            by_shard.setdefault(shard, []).append(
                _Run(OPS_BY_CODE[code], column[rows], rows, sink, now, requests, version))
        totals = np.bincount(homes).tolist()
        for shard, runs in by_shard.items():
            self._admit(shard, runs, totals[shard])

    def _admit(self, shard: int, runs: list[_Run], total: int) -> None:
        """Queue ``runs`` (``total`` requests) on ``shard`` under one
        condition take, shedding whatever does not fit in the remaining
        capacity (counted in requests: a run that only partly fits is
        split)."""
        cond = self._conds[shard]
        queue = self._queues[shard]
        shed: list[_Run] = []
        with cond:
            if self._stopping:
                raise RuntimeError("coalescer is closed; no new requests accepted")
            depth = self._depths[shard]
            taken = min(total, self.capacity - depth)
            if taken < total:
                # Runs are admitted in order until the one that crosses
                # the bound; it is split and everything after it is shed.
                room = taken
                for i, run in enumerate(runs):
                    size = len(run.slots)
                    if size > room:
                        break
                    room -= size
                head, tail = run.split(room)
                shed = [tail, *runs[i + 1:]]
                runs = [*runs[:i], head] if room else runs[:i]
                self.stats.record_shed(total - taken)
            queue.extend(runs)
            self._depths[shard] = depth + taken
            cond.notify()
        if taken:
            self.stats.record_submit_many(shard, taken, depth + taken)
        for run in shed:
            run.resolve(Overloaded(depth=self.capacity))

    # -- worker side -------------------------------------------------------
    def start(self) -> None:
        """Spawn one daemon worker thread per shard (idempotent).

        Reopens a closed coalescer: the stopping flag is cleared under
        every shard's condition before any worker exists to observe it.
        """
        if self._workers:
            return
        for cond in self._conds:
            with cond:
                self._stopping = False
        for s in range(self.store.num_shards):
            t = threading.Thread(target=self._worker, args=(s,),
                                 name=f"serve-shard-{s}", daemon=True)
            self._workers.append(t)
            t.start()

    def close(self, timeout: float = 5.0) -> int:
        """Stop accepting work, drain every queued request, join workers.

        Idempotent.  The stopping flag flips under each shard's
        condition, so a concurrent ``submit`` either enqueued before the
        flag (and is drained below) or observes it and raises — there is
        no window in which a request can be queued and then silently
        dropped.  Workers drain their queues before exiting and are
        joined against one shared ``timeout`` deadline; anything a
        worker that missed the deadline left queued is served
        synchronously here.  Returns the number of requests the closer
        had to serve itself (0 when the workers drained everything).
        """
        for cond in self._conds:
            with cond:
                self._stopping = True
                cond.notify_all()
        deadline = time.monotonic() + max(0.0, timeout)
        for t in self._workers:
            t.join(max(0.0, deadline - time.monotonic()))
        self._workers = []
        return self.flush()

    def stop(self) -> None:
        """Back-compat alias for :meth:`close` (pre-PR-8 name)."""
        self.close()

    def flush(self, shard: int | None = None) -> int:
        """Drain queued requests synchronously in the calling thread.

        Intended for tests and single-threaded use *without* started
        workers (with workers running, drain order between the flusher
        and a worker is unspecified).  An empty queue is a no-op.
        Returns the number of requests served.
        """
        shards = range(self.store.num_shards) if shard is None else (shard,)
        served = 0
        for s in shards:
            while True:
                batch = self._take_batch(s, wait=False)
                if not batch:
                    break
                self._dispatch(s, batch)
                served += sum(len(run.slots) for run in batch)
        return served

    def _worker(self, shard: int) -> None:
        while True:
            batch = self._take_batch(shard, wait=True)
            if batch is None:
                return
            self._dispatch(shard, batch)

    def _take_batch(self, shard: int, wait: bool) -> list[_Run] | None:
        """Pop what is queued — never waiting for more — up to ``max_batch``
        requests (splitting the run that crosses the bound); None signals
        worker shutdown."""
        cond = self._conds[shard]
        queue = self._queues[shard]
        with cond:
            depths = self._depths
            if wait:
                while not queue and not self._stopping:
                    cond.wait()
                if not queue:
                    return None
            batch: list[_Run] = []
            room = self.max_batch
            while queue and room:
                run = queue[0]
                size = len(run.slots)
                if size > room:
                    run, queue[0] = run.split(room)
                    size = room
                else:
                    queue.popleft()
                batch.append(run)
                room -= size
            depths[shard] -= self.max_batch - room
            return batch

    def _dispatch(self, shard: int, batch: list[_Run]) -> None:
        """Execute a drained batch: commuting reads first when it holds
        writes, then everything else in queue order, fusing consecutive
        same-op reads and consecutive writes."""
        if any(_IS_WRITE[run.op.code] for run in batch):
            batch = self._hoist_reads(shard, batch)
        i = 0
        n = len(batch)
        while i < n:
            run = batch[i]
            op = run.op
            j = i + 1
            if _IS_WRITE[op.code]:
                while j < n and _IS_WRITE[batch[j].op.code]:
                    j += 1
                self._run_writes(shard, batch[i:j])
            elif _IS_READ[op.code]:
                while j < n and batch[j].op is op:
                    j += 1
                self._run_fused(shard, op, batch[i:j])
            else:
                self._run_scalar(run)
            i = j

    def _hoist_reads(self, shard: int, batch: list[_Run]) -> list[_Run]:
        """Answer every coalescable read row that no earlier write in the
        batch touches, one kernel call per op; return what is left, in
        queue order.

        Such a read commutes with every write queued before it, so
        answering it first gives what queue order would.  Key identity
        is float equality (``-0.0`` is ``0.0``, as in the indexes); a
        NaN key equals nothing, so a NaN-key read never moves.
        """
        written: set[object] = set()
        hoisted: dict[int, list[_Run]] = {}
        rest: list[_Run] = []
        multi_dim = self.store.multi_dim
        for run in batch:
            code = run.op.code
            if _IS_WRITE[code]:
                key = run.column[0].tolist()
                written.add(tuple(key) if multi_dim else key)
            elif _IS_READ[code]:
                keys = run.column.tolist()
                if multi_dim:
                    free = [all(c == c for c in k) and tuple(k) not in written
                            for k in keys]
                else:
                    free = [k == k and k not in written for k in keys]
                if all(free):
                    hoisted.setdefault(code, []).append(run)
                    continue
                if any(free):
                    mask = np.array(free)
                    hoisted.setdefault(code, []).append(run.select(mask))
                    run = run.select(~mask)
            rest.append(run)
        for code, runs in hoisted.items():
            self._run_fused(shard, OPS_BY_CODE[code], runs)
        return rest

    def _run_fused(self, shard: int, op: Op, fused: list[_Run]) -> None:
        """Same-op coalescable runs as one kernel call (scalar if 1 row)."""
        rows = sum(len(r.slots) for r in fused)
        self.stats.record_batch(shard, rows)
        if rows > 1:
            self._run_batch(shard, op, fused)
        else:
            self._run_scalar(fused[0])

    def _run_batch(self, shard: int, op: Op, fused: list[_Run]) -> None:
        """One kernel call over the fused runs' concatenated columns."""
        target = self.executor if self.executor is not None else self.store
        column = (fused[0].column if len(fused) == 1
                  else np.concatenate([run.column for run in fused]))
        try:
            values = target.execute_columns(shard, op, column, _common_version(fused))
        except WorkerDied as exc:
            # The shard's worker process died holding this window; the
            # executor has already restarted it.  Answer every in-flight
            # request with a typed response — a crash sheds cleanly, it
            # never hangs a window or leaks a BrokenPipeError.
            error = WorkerError(shard=exc.shard, reason=exc.reason)
            for run in fused:
                run.resolve(error)
            return
        except Exception as exc:
            self.stats.record_kernel_fault()
            if len(fused) > 1:
                # No fate sharing: only the run holding the offending
                # row may see the exception, so re-execute one by one.
                for run in fused:
                    self._run_batch(shard, op, [run])
            else:
                fused[0].sink.fail_many(fused[0].slots, exc)
            return
        now = time.perf_counter()
        self.stats.record_done_many([now - run.submitted for run in fused],
                                    counts=[len(run.slots) for run in fused])
        start = 0
        for run in fused:
            stop = start + len(run.slots)
            run.sink.complete_many(run.slots, values[start:stop])
            start = stop

    def _run_scalar(self, run: _Run) -> None:
        """A read run of length 1 through the scalar store path."""
        try:
            value = self.store.execute(run.requests[run.slots[0]])
        except Exception as exc:
            run.sink.fail_many(run.slots, exc)
            return
        self.stats.record_done(time.perf_counter() - run.submitted)
        run.resolve(value)

    def _run_writes(self, shard: int, runs: list[_Run]) -> None:
        """A stretch of write runs (one row each) under one shard-lock take.

        A row that raises fails only its own request; the rest of the
        stretch still applies and answers, one ``complete_many`` per sink.
        """
        results: list[object]
        try:
            results = self.store.execute_writes(
                shard, [run.requests[run.slots[0]] for run in runs], _common_version(runs))
        except Exception as exc:
            results = [exc] * len(runs)
        now = time.perf_counter()
        latencies: list[float] = []
        failed: list[tuple[_Run, Exception]] = []
        by_sink: dict["Window | _Tickets", tuple[list[int], list[object]]] = {}
        for run, result in zip(runs, results):
            if isinstance(result, Exception):
                failed.append((run, result))
                continue
            latencies.append(now - run.submitted)
            slots, values = by_sink.setdefault(run.sink, ([], []))
            slots.append(run.slots[0])
            values.append(result)
        if latencies:
            self.stats.record_done_many(latencies, writes=len(latencies))
        for run, exc in failed:
            run.sink.fail_many(run.slots, exc)
        for sink, (slots, values) in by_sink.items():
            sink.complete_many(np.array(slots, dtype=np.intp), np.array(values, dtype=object))

    # -- introspection -----------------------------------------------------
    def queue_depths(self) -> list[int]:
        """Current per-shard queued requests (racy snapshot, fine for stats)."""
        return list(self._depths)
