"""Coalescer edge cases: empty flush, batch parity, shedding, determinism."""

import builtins
import threading
import time

import numpy as np
import pytest

from repro.baselines import SortedArrayIndex
from repro.serve import (
    Coalescer,
    IndexServer,
    Op,
    Overloaded,
    Request,
    ServerStats,
    ShardedStore,
    Ticket,
    WorkerDied,
    WorkerError,
    make_workload,
    run_closed_loop,
)


def _fixture(num_shards=2, **kwargs):
    keys = np.random.default_rng(0).uniform(0.0, 1e6, 500)
    store = ShardedStore(SortedArrayIndex, num_shards=num_shards).build(keys)
    stats = ServerStats(num_shards)
    return keys, store, stats, Coalescer(store, stats, **kwargs)


class TestFlush:
    def test_empty_flush_window_is_a_noop(self):
        _, _, stats, coalescer = _fixture()
        assert coalescer.flush() == 0
        assert stats.responses == 0
        assert coalescer.queue_depths() == [0, 0]

    def test_flush_drains_all_shards(self):
        keys, _, stats, coalescer = _fixture()
        futures = [
            coalescer.submit(Request(op=Op.LOOKUP, key=float(k))) for k in keys[:20]
        ]
        assert coalescer.flush() == 20
        assert stats.responses == 20
        assert all(f.done() for f in futures)

    def test_flush_single_shard_only(self):
        keys, store, _, coalescer = _fixture()
        by_shard = {0: [], 1: []}
        for k in keys[:40]:
            by_shard[store.route_key(float(k))].append(k)
        for k in keys[:40]:
            coalescer.submit(Request(op=Op.LOOKUP, key=float(k)))
        assert coalescer.flush(shard=0) == len(by_shard[0])
        assert coalescer.queue_depths()[0] == 0
        assert coalescer.queue_depths()[1] == len(by_shard[1])


class TestBatchParity:
    def test_single_request_batch_matches_scalar(self):
        keys, store, _, coalescer = _fixture()
        direct = SortedArrayIndex().build(keys)
        fut = coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[3])))
        assert coalescer.flush() == 1
        assert fut.result().value == direct.lookup(keys[3])

    def test_full_batch_matches_scalar_loop(self):
        keys, _, stats, coalescer = _fixture(max_batch=64)
        direct = SortedArrayIndex().build(keys)
        probe = list(keys[:50]) + [-1.0, 2e9]
        futures = [
            coalescer.submit(Request(op=Op.LOOKUP, key=float(k))) for k in probe
        ]
        coalescer.flush()
        assert [f.result().value for f in futures] == [direct.lookup(k) for k in probe]
        assert stats.batches > 0

    def test_mixed_op_runs_split_but_preserve_order(self):
        keys, store, _, coalescer = _fixture(num_shards=1, max_batch=64)
        key = 123.456
        futures = [
            coalescer.submit(Request(op=Op.LOOKUP, key=key)),
            coalescer.submit(Request(op=Op.INSERT, key=key, value="w")),
            coalescer.submit(Request(op=Op.LOOKUP, key=key)),
        ]
        coalescer.flush()
        assert futures[0].result().value is None
        assert futures[2].result().value == "w"

    def test_contains_and_lookup_runs_coalesce_separately(self):
        keys, _, stats, coalescer = _fixture(num_shards=1, max_batch=64)
        futs = [coalescer.submit(Request(op=Op.LOOKUP, key=float(k))) for k in keys[:5]]
        futs += [coalescer.submit(Request(op=Op.CONTAINS, key=float(k))) for k in keys[:5]]
        coalescer.flush()
        assert stats.batches == 2
        assert all(isinstance(f.result().value, bool) for f in futs[5:])


class TestShedding:
    def test_overload_returns_overloaded_response_not_exception(self):
        keys, _, stats, coalescer = _fixture(num_shards=1, capacity=2)
        futures = [
            coalescer.submit(Request(op=Op.LOOKUP, key=float(k))) for k in keys[:5]
        ]
        coalescer.flush()
        results = [f.result() for f in futures]
        shed = [r for r in results if isinstance(r, Overloaded)]
        assert len(shed) == 3
        assert all(not response.ok for response in shed)
        assert all(response.depth == 2 for response in shed)
        assert stats.shed == 3

    def test_window_submission_sheds_the_overflow_slots(self):
        keys, _, stats, coalescer = _fixture(num_shards=1, capacity=3)
        window = coalescer.submit_window(
            [Request(op=Op.LOOKUP, key=float(k)) for k in keys[:8]]
        )
        coalescer.flush()
        results = window.wait()
        assert sum(isinstance(v, Overloaded) for v in results) == 5
        assert stats.shed == 5

    def test_accepted_requests_still_complete_after_shed(self):
        keys, _, _, coalescer = _fixture(num_shards=1, capacity=1)
        direct = SortedArrayIndex().build(keys)
        first = coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[0])))
        second = coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[1])))
        coalescer.flush()
        assert first.result().value == direct.lookup(keys[0])
        assert isinstance(second.result(), Overloaded)


class TestValidation:
    def test_rejects_bad_window_parameters(self):
        keys, store, stats, _ = _fixture()
        with pytest.raises(ValueError):
            Coalescer(store, stats, max_batch=0)
        with pytest.raises(ValueError):
            Coalescer(store, stats, capacity=0)


class TestThreadedDeterminism:
    def test_eight_thread_stress_is_deterministic(self):
        keys = np.random.default_rng(1).uniform(0.0, 1e6, 2000)
        requests = make_workload("zipfian", keys, 3000, seed=7)

        def drive():
            server = IndexServer(SortedArrayIndex, num_shards=4, max_batch=128).build(keys)
            try:
                return run_closed_loop(server, requests, clients=8, pipeline=32)
            finally:
                server.close()

        first = drive()
        second = drive()
        assert first["shed"] == second["shed"] == 0
        assert first["values"] == second["values"]

    def test_worker_drain_matches_direct_answers(self):
        keys = np.random.default_rng(2).uniform(0.0, 1e6, 1000)
        direct = SortedArrayIndex().build(keys)
        requests = [Request(op=Op.LOOKUP, key=float(k)) for k in keys[:200]]
        server = IndexServer(SortedArrayIndex, num_shards=3).build(keys)
        try:
            result = run_closed_loop(server, requests, clients=4, pipeline=16)
        finally:
            server.close()
        expected = [direct.lookup(r.key) for r in requests]
        flat = {}
        for client, chunk in enumerate(result["values"]):
            for i, value in enumerate(chunk):
                flat[client + 4 * i] = value
        assert [flat[i] for i in range(len(requests))] == expected


class TestClose:
    """Shutdown ordering: nothing queued is ever dropped, close is reusable."""

    def test_close_without_start_drains_queue_synchronously(self):
        keys, _, stats, coalescer = _fixture()
        direct = SortedArrayIndex().build(keys)
        futures = [
            coalescer.submit(Request(op=Op.LOOKUP, key=float(k))) for k in keys[:20]
        ]
        assert coalescer.close() == 20  # the closer served every leftover
        for key, fut in zip(keys[:20], futures):
            assert fut.result(timeout=5.0).value == direct.lookup(key)
        assert stats.responses == 20

    def test_close_with_workers_resolves_every_future(self):
        keys, _, _, coalescer = _fixture(max_batch=8)
        coalescer.start()
        futures = [
            coalescer.submit(Request(op=Op.LOOKUP, key=float(k))) for k in keys[:100]
        ]
        coalescer.close()
        assert all(f.done() for f in futures)
        assert not any(isinstance(f.result(), Overloaded) for f in futures)

    def test_close_is_idempotent(self):
        _, _, _, coalescer = _fixture()
        coalescer.start()
        coalescer.close()
        assert coalescer.close() == 0
        assert coalescer.queue_depths() == [0, 0]

    def test_submit_after_close_raises(self):
        keys, _, _, coalescer = _fixture()
        coalescer.close()
        with pytest.raises(RuntimeError, match="closed"):
            coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[0])))
        with pytest.raises(RuntimeError, match="closed"):
            coalescer.submit_many(
                [Request(op=Op.LOOKUP, key=float(keys[0]))]
            )

    def test_start_reopens_a_closed_coalescer(self):
        keys, _, _, coalescer = _fixture(max_batch=8)
        direct = SortedArrayIndex().build(keys)
        coalescer.start()
        coalescer.close()
        coalescer.start()
        fut = coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[3])))
        assert fut.result(timeout=5.0).value == direct.lookup(keys[3])
        coalescer.close()

    def test_server_close_orders_coalescer_before_executor(self):
        """IndexServer.close() is idempotent and leaves no pending futures."""
        keys = np.random.default_rng(1).uniform(0.0, 1e6, 300)
        server = IndexServer(SortedArrayIndex, num_shards=2, max_batch=16).build(keys)
        futures = [
            server.submit(Request(op=Op.LOOKUP, key=float(k))) for k in keys[:50]
        ]
        server.close()
        assert all(f.done() for f in futures)
        server.close()  # idempotent


def _lookups(keys):
    return [Request(op=Op.LOOKUP, key=float(k)) for k in keys]


def _kernel_sizes(store, shard=0):
    """Record the size of every ``lookup_batch`` call on one shard."""
    sizes = []
    kernel = store.shards[shard].lookup_batch
    store.shards[shard].lookup_batch = lambda column: (sizes.append(len(column)),
                                                       kernel(column))[1]
    return sizes


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


class TestRunQueue:
    """The queue holds same-op runs; every bound is still counted in requests."""

    def test_run_larger_than_capacity_is_split_head_served_tail_shed(self):
        keys, _, stats, coalescer = _fixture(num_shards=1, capacity=5)
        direct = SortedArrayIndex().build(keys)
        window = coalescer.submit_window(_lookups(keys[:8]))
        assert coalescer.queue_depths() == [5]        # requests ...
        assert len(coalescer._queues[0]) == 1         # ... held as one run
        coalescer.flush()
        results = window.wait()
        assert results[:5] == [direct.lookup(k) for k in keys[:5]]
        assert results[5:] == [Overloaded(depth=5)] * 3
        assert stats.shed == 3
        assert stats.requests == 8 and stats.responses == 5

    def test_shedding_counts_rows_across_runs_and_sinks(self):
        keys, _, stats, coalescer = _fixture(num_shards=1, capacity=6)
        first = coalescer.submit_window(_lookups(keys[:4]))
        mixed = _lookups(keys[4:6]) + [Request(op=Op.CONTAINS, key=float(k)) for k in keys[6:9]]
        futures = coalescer.submit_many(mixed)        # 2 fit, 3 contains are shed
        assert coalescer.queue_depths() == [6]
        assert [f.done() for f in futures] == [False, False, True, True, True]
        assert all(f.result() == Overloaded(depth=6) for f in futures[2:])
        assert stats.shed == 3
        coalescer.flush()
        assert not any(isinstance(v, Overloaded) for v in first.wait())
        assert all(f.result().ok for f in futures[:2])
        assert coalescer.queue_depths() == [0]

    def test_max_batch_splits_a_run_and_bounds_every_kernel_call(self):
        keys, store, stats, coalescer = _fixture(num_shards=1, max_batch=8)
        direct = SortedArrayIndex().build(keys)
        sizes = _kernel_sizes(store)
        window = coalescer.submit_window(_lookups(keys[:20]))
        assert coalescer.flush() == 20
        assert sizes == [8, 8, 4]
        assert stats.batches == 3 and stats.batched_requests == 20
        assert window.wait() == [direct.lookup(k) for k in keys[:20]]

    def test_default_cap_never_cuts_a_run(self):
        keys, store, _, coalescer = _fixture(num_shards=1)
        direct = SortedArrayIndex().build(keys)
        sizes = _kernel_sizes(store)
        window = coalescer.submit_window(_lookups(keys[:300]))
        assert coalescer.flush() == 300
        assert sizes == [300]
        assert window.wait() == [direct.lookup(k) for k in keys[:300]]

    def test_runs_of_two_windows_fuse_into_one_kernel_call(self):
        keys, store, stats, coalescer = _fixture(num_shards=1, max_batch=64)
        sizes = _kernel_sizes(store)
        one = coalescer.submit_window(_lookups(keys[:10]))
        two = coalescer.submit_window(_lookups(keys[10:25]))
        coalescer.flush()
        assert sizes == [25]
        direct = SortedArrayIndex().build(keys)
        assert one.wait() + two.wait() == [direct.lookup(k) for k in keys[:25]]
        assert stats.latency.total == 25

    def test_windows_queued_while_the_worker_is_busy_fuse_on_its_next_drain(self):
        """Drain on wake: the worker takes what is queued and never waits
        for more, yet rows that arrive while it is busy fuse."""
        keys, store, _, coalescer = _fixture(num_shards=1)
        direct = SortedArrayIndex().build(keys)
        sizes = _kernel_sizes(store)
        coalescer.start()
        try:
            with store._locks[0]:             # the worker blocks in its first kernel call
                first = coalescer.submit_window(_lookups(keys[:5]))
                _wait_until(lambda: coalescer.queue_depths() == [0])
                one = coalescer.submit_window(_lookups(keys[5:15]))
                two = coalescer.submit_window(_lookups(keys[15:40]))
            results = first.wait() + one.wait() + two.wait()
        finally:
            coalescer.close()
        assert sizes == [5, 35]
        assert results == [direct.lookup(k) for k in keys[:40]]

    def test_max_batch_one_executes_every_row_through_scalar_execute(self):
        keys, store, stats, coalescer = _fixture(num_shards=2, max_batch=1)
        direct = SortedArrayIndex().build(keys)
        executed = []
        execute = store.execute
        store.execute = lambda request: (executed.append(request), execute(request))[1]
        for shard in store.shards:
            shard.lookup_batch = None                 # any kernel call would raise
        requests = _lookups(keys[:12])
        window = coalescer.submit_window(requests)
        assert coalescer.flush() == 12
        assert window.wait() == [direct.lookup(k) for k in keys[:12]]
        assert sorted(executed, key=requests.index) == requests
        assert stats.batches == 12 and stats.batched_requests == 12

    def test_window_order_is_kept_per_shard_across_op_changes(self):
        keys, _, _, coalescer = _fixture(num_shards=2, max_batch=64)
        key = 123.456
        window = coalescer.submit_window([
            Request(op=Op.LOOKUP, key=key),
            Request(op=Op.INSERT, key=key, value="w1"),
            Request(op=Op.LOOKUP, key=key),
            Request(op=Op.CONTAINS, key=key),
            Request(op=Op.DELETE, key=key),
            Request(op=Op.LOOKUP, key=key),
            Request(op=Op.RANGE_1D, low=key - 1.0, high=key + 1.0),
        ])
        coalescer.flush()
        assert window.wait() == [None, None, "w1", True, True, None, []]

    def test_empty_window_completes_immediately(self):
        _, _, stats, coalescer = _fixture()
        assert coalescer.submit_window([]).wait() == []
        assert coalescer.submit_many([]) == []
        assert stats.requests == 0

    def test_keyed_request_without_a_key_is_rejected_at_submit(self):
        keys, _, _, coalescer = _fixture()
        with pytest.raises(TypeError):
            coalescer.submit_window(_lookups(keys[:3]) + [Request(op=Op.LOOKUP)])

    def test_values_that_are_sequences_survive_the_slot_array(self):
        keys = np.arange(10.0)
        values = [(int(k), [int(k)]) for k in keys]   # tuples holding lists
        store = ShardedStore(SortedArrayIndex, num_shards=2).build(keys, values)
        coalescer = Coalescer(store, ServerStats(2))
        window = coalescer.submit_window(
            _lookups(keys) + [Request(op=Op.RANGE_1D, low=2.0, high=3.0)])
        coalescer.flush()
        assert window.wait() == values + [[(2.0, values[2]), (3.0, values[3])]]


class TestCloseWithQueuedRuns:
    def test_close_drains_queued_runs_of_every_kind(self):
        keys, _, stats, coalescer = _fixture(max_batch=8)
        direct = SortedArrayIndex().build(keys)
        window = coalescer.submit_window(
            _lookups(keys[:30]) + [Request(op=Op.RANGE_1D, low=0.0, high=-1.0)])
        futures = coalescer.submit_many(_lookups(keys[30:40]))
        assert coalescer.close() == 41
        assert window.wait() == [direct.lookup(k) for k in keys[:30]] + [[]]
        assert [f.result(timeout=5.0).value for f in futures] == [
            direct.lookup(k) for k in keys[30:40]]
        assert coalescer.queue_depths() == [0, 0]
        assert stats.responses == 41

    def test_submit_window_racing_close_completes_or_raises_never_hangs(self):
        import threading

        keys, _, _, coalescer = _fixture(num_shards=4, max_batch=16)
        direct = SortedArrayIndex().build(keys)
        expected = [direct.lookup(k) for k in keys[:64]]
        coalescer.start()
        outcomes: list[str] = []
        started = threading.Event()

        def client() -> None:
            while True:
                try:
                    window = coalescer.submit_window(_lookups(keys[:64]))
                except RuntimeError:
                    outcomes.append("raised")
                    return
                started.set()
                outcomes.append("served" if window.wait() == expected else "wrong")

        clients = [threading.Thread(target=client, daemon=True) for _ in range(3)]
        for thread in clients:
            thread.start()
        assert started.wait(timeout=10.0)
        coalescer.close()
        for thread in clients:
            thread.join(timeout=10.0)
        # A hung Window.wait() would leave its client thread alive.
        assert not any(thread.is_alive() for thread in clients)
        assert outcomes.count("raised") == 3
        assert "wrong" not in outcomes and "served" in outcomes
        assert coalescer.queue_depths() == [0, 0, 0, 0]


FAULT_KEY = 123456.0


class _FaultyIndex(SortedArrayIndex):
    """A kernel that raises whenever the sentinel key is in its batch."""

    def lookup_batch(self, keys):
        if FAULT_KEY in np.asarray(keys):
            raise RuntimeError("kernel fault on the sentinel key")
        return super().lookup_batch(keys)


class TestNoFateSharing:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_kernel_fault_fails_only_the_run_that_holds_the_bad_row(self, backend):
        """Two clients' windows fuse into one kernel call; one holds a row
        the kernel raises on.  Only that client may see the exception."""
        keys = np.arange(0.0, 1000.0)
        windows = {"bad": [1.0, FAULT_KEY, 2.0], "good": [float(k) for k in range(200)]}
        rows = sum(len(w) for w in windows.values())
        outcome = {}
        with IndexServer(_FaultyIndex, num_shards=1, cache_size=0,
                         backend=backend).build(keys) as server:
            def client(name):
                try:
                    outcome[name] = server.serve_window(
                        [Request(op=Op.LOOKUP, key=k) for k in windows[name]])
                except RuntimeError as exc:
                    outcome[name] = exc

            depths = server._coalescer.queue_depths
            threads = [threading.Thread(target=client, args=(name,)) for name in windows]
            # Park the worker on the shard lock behind a scalar range (a
            # run that counts no batch), queue both windows, then let it
            # go: its next drain fuses them into one kernel call.
            with server.store._locks[0]:
                plug = server.submit(Request(op=Op.RANGE_1D, low=-2.0, high=-1.0))
                _wait_until(lambda: depths() == [0])
                for t in threads:
                    t.start()
                _wait_until(lambda: depths() == [rows])
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
            assert plug.result(timeout=30.0).value == []
            stats = server.stats()
        assert isinstance(outcome["bad"], RuntimeError)
        assert outcome["good"] == list(range(200))
        assert stats["batches"] == 1  # the windows did fuse
        assert stats["kernel_faults"] == 2  # the fused call, then the bad run alone

    def test_kernel_faults_stays_zero_on_clean_traffic(self):
        keys, _, stats, coalescer = _fixture(num_shards=1)
        window = coalescer.submit_window(_lookups(keys[:30]))
        coalescer.flush()
        window.wait()
        assert stats.kernel_faults == 0 and stats.snapshot()["kernel_faults"] == 0


class _DyingExecutor:
    """A process executor whose shard worker dies holding every window."""

    def execute_columns(self, shard, op, column, version=None):
        raise WorkerDied(shard, "killed for the test")


class TestTickets:
    """``submit`` returns a :class:`Ticket`: ``done()`` / ``result(timeout)``."""

    def test_done_before_and_after_flush(self):
        keys, _, _, coalescer = _fixture()
        ticket = coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[4])))
        assert isinstance(ticket, Ticket)
        assert not ticket.done()
        coalescer.flush()
        assert ticket.done()
        assert ticket.result().value == SortedArrayIndex().build(keys).lookup(keys[4])
        assert ticket.result(timeout=0).value == ticket.result().value

    def test_result_timeout_raises_the_builtin_timeout_error(self):
        keys, _, _, coalescer = _fixture()
        ticket = coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[0])))
        started = time.monotonic()
        with pytest.raises(TimeoutError) as info:
            ticket.result(timeout=0.05)
        assert type(info.value) is builtins.TimeoutError
        assert time.monotonic() - started >= 0.04
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0)
        assert not ticket.done()
        coalescer.flush()
        assert ticket.result(timeout=0).ok

    def test_overloaded_comes_back_unwrapped_and_already_done(self):
        keys, _, _, coalescer = _fixture(num_shards=1, capacity=1)
        coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[0])))
        shed = coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[1])))
        assert shed.done()
        assert shed.result(timeout=0) == Overloaded(depth=1)

    def test_worker_error_comes_back_unwrapped(self):
        keys, _, _, coalescer = _fixture(num_shards=1)
        coalescer.executor = _DyingExecutor()
        tickets = [coalescer.submit(r) for r in _lookups(keys[:3])]
        coalescer.flush()
        assert [t.result(timeout=0) for t in tickets] == [
            WorkerError(shard=0, reason="killed for the test")] * 3

    def test_a_kernel_exception_re_raises_on_every_result_call(self):
        keys = np.arange(0.0, 100.0)
        store = ShardedStore(_FaultyIndex, num_shards=1).build(np.append(keys, FAULT_KEY))
        coalescer = Coalescer(store, ServerStats(1))
        good = coalescer.submit(Request(op=Op.LOOKUP, key=3.0))
        bad = coalescer.submit(Request(op=Op.LOOKUP, key=FAULT_KEY))
        coalescer.flush()
        assert good.result().value == 3
        for _ in range(3):
            with pytest.raises(RuntimeError, match="sentinel"):
                bad.result(timeout=0)
        assert bad.done()

    def test_two_threads_waiting_on_one_ticket_both_wake(self):
        keys, _, _, coalescer = _fixture()
        ticket = coalescer.submit(Request(op=Op.LOOKUP, key=float(keys[2])))
        seen = []
        waiting = threading.Barrier(3)

        def waiter():
            waiting.wait(timeout=10.0)
            seen.append(ticket.result(timeout=10.0).value)

        threads = [threading.Thread(target=waiter) for _ in range(2)]
        for t in threads:
            t.start()
        waiting.wait(timeout=10.0)
        time.sleep(0.02)  # let both block on the latch
        coalescer.flush()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert seen == [ticket.result().value] * 2


def _spy_write_stretches(store):
    """Record the number of requests in every ``execute_writes`` call."""
    sizes = []
    execute_writes = store.execute_writes
    store.execute_writes = lambda shard, requests, version=None: (
        sizes.append(len(requests)), execute_writes(shard, requests, version))[1]
    return sizes


class TestCommutingReads:
    """A batch holding writes answers its commuting reads first, in one
    kernel call per op; conflicting reads keep their place."""

    def test_non_conflicting_reads_share_one_kernel_call(self):
        keys, store, _, coalescer = _fixture(num_shards=1)
        direct = SortedArrayIndex().build(keys)
        a, j, j2, b = (float(k) for k in keys[:4])
        new = 123.456
        sizes = _kernel_sizes(store)
        window = coalescer.submit_window([
            Request(op=Op.LOOKUP, key=a),
            Request(op=Op.INSERT, key=new, value="new"),
            Request(op=Op.LOOKUP, key=j),
            Request(op=Op.LOOKUP, key=new),       # conflicts: sees the insert
            Request(op=Op.LOOKUP, key=j2),
            Request(op=Op.DELETE, key=j),
            Request(op=Op.LOOKUP, key=j),         # conflicts: sees the delete
            Request(op=Op.LOOKUP, key=b),
        ])
        coalescer.flush()
        assert sizes == [4]                       # a, j, j2, b
        assert window.wait() == [direct.lookup(a), None, direct.lookup(j), "new",
                                 direct.lookup(j2), True, None, direct.lookup(b)]

    def test_negative_zero_is_the_same_key_as_zero(self):
        keys, store, _, coalescer = _fixture(num_shards=1)
        a, b = (float(k) for k in keys[:2])
        sizes = _kernel_sizes(store)
        window = coalescer.submit_window([
            Request(op=Op.INSERT, key=0.0, value="zero"),
            Request(op=Op.LOOKUP, key=-0.0),
            Request(op=Op.LOOKUP, key=a),
            Request(op=Op.LOOKUP, key=b),
        ])
        coalescer.flush()
        assert sizes == [2]
        assert window.wait()[:2] == [None, "zero"]

    def test_nan_key_read_keeps_its_place(self):
        keys, store, _, coalescer = _fixture(num_shards=1)
        a, b = (float(k) for k in keys[:2])
        sizes = _kernel_sizes(store)
        executed = []
        execute = store.execute
        store.execute = lambda request: (executed.append(request), execute(request))[1]
        nan_read = Request(op=Op.LOOKUP, key=float("nan"))
        window = coalescer.submit_window([
            Request(op=Op.INSERT, key=123.456, value="w"),
            Request(op=Op.LOOKUP, key=a),
            nan_read,
            Request(op=Op.LOOKUP, key=b),
        ])
        coalescer.flush()
        assert sizes == [2]                       # a and b only
        assert executed == [nan_read]             # answered scalar, after the write
        assert window.wait()[2] is None

    def test_ranges_stay_in_queue_order(self):
        keys, _, _, coalescer = _fixture(num_shards=1)
        window = coalescer.submit_window([
            Request(op=Op.RANGE_1D, low=-3.0, high=-1.0),
            Request(op=Op.INSERT, key=-2.0, value="w"),
            Request(op=Op.RANGE_1D, low=-3.0, high=-1.0),
        ])
        coalescer.flush()
        assert window.wait() == [[], None, [(-2.0, "w")]]

    def test_write_free_batches_keep_positional_fusion(self):
        keys, store, _, coalescer = _fixture(num_shards=1)
        sizes = _kernel_sizes(store)
        window = coalescer.submit_window(
            _lookups(keys[:3]) + [Request(op=Op.RANGE_1D, low=0.0, high=-1.0)]
            + _lookups(keys[3:8]))
        coalescer.flush()
        assert sizes == [3, 5]
        assert window.wait()[3] == []


class _FailingInsertIndex(SortedArrayIndex):
    """An index whose insert raises on the sentinel key."""

    def insert(self, key, value=None):
        if key == FAULT_KEY:
            raise RuntimeError("insert refused the sentinel key")
        super().insert(key, value)


class TestWriteStretches:
    def test_consecutive_writes_run_under_one_lock_take(self):
        keys, store, stats, coalescer = _fixture(num_shards=1)
        stretches = _spy_write_stretches(store)
        generation = store.generations[0]
        window = coalescer.submit_window([
            Request(op=Op.INSERT, key=-1.0, value="a"),
            Request(op=Op.INSERT, key=-2.0, value="b"),
            Request(op=Op.LOOKUP, key=float(keys[0])),
            Request(op=Op.DELETE, key=-1.0),
            Request(op=Op.INSERT, key=-3.0, value="c"),
        ])
        coalescer.flush()
        assert stretches == [4]                   # the hoisted lookup no longer splits them
        assert store.generations[0] == generation + 1
        assert window.wait()[3:] == [True, None]
        assert stats.writes == 4

    def test_a_single_write_uses_the_same_path(self):
        _, store, _, coalescer = _fixture(num_shards=1)
        stretches = _spy_write_stretches(store)
        fut = coalescer.submit(Request(op=Op.INSERT, key=-1.0, value="a"))
        coalescer.flush()
        assert fut.result().value is None
        assert stretches == [1]

    def test_a_raising_write_fails_only_its_row_and_the_worker_lives(self):
        keys = np.arange(0.0, 100.0)
        with IndexServer(_FailingInsertIndex, num_shards=1).build(keys) as server:
            futures = server.submit_many([
                Request(op=Op.INSERT, key=-1.0, value="a"),
                Request(op=Op.INSERT, key=FAULT_KEY, value="bad"),
                Request(op=Op.INSERT, key=-2.0, value="b"),
                Request(op=Op.LOOKUP, key=-2.0),
            ])
            with pytest.raises(RuntimeError, match="sentinel"):
                futures[1].result(timeout=10.0)
            assert [futures[i].result(timeout=10.0).value for i in (0, 2, 3)] == [
                None, None, "b"]
            assert server.lookup(-1.0) == "a"     # the worker survived
            assert server.stats()["responses"] >= 4

    def test_writes_on_an_immutable_factory_fail_per_row(self):
        from repro.onedim import PGMIndex

        keys = np.arange(0.0, 100.0)
        with IndexServer(PGMIndex, num_shards=2).build(keys) as server:
            futures = server.submit_many([
                Request(op=Op.INSERT, key=1.5, value="a"),
                Request(op=Op.LOOKUP, key=3.0),
                Request(op=Op.DELETE, key=4.0),
            ])
            for i in (0, 2):
                with pytest.raises(TypeError, match="immutable"):
                    futures[i].result(timeout=10.0)
            assert futures[1].result(timeout=10.0).value == 3
            assert server.lookup(5.0) == 5
