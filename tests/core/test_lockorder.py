"""Runtime lock-order witness: inversion detection + static cross-check.

The witness must raise :class:`LockOrderError` on an injected inversion
from a *single* interleaving (no actual two-thread collision), stay
silent on the sanctioned increasing-rank protocol and RLock re-entry,
and — the cross-validation contract — every edge it observes while the
sanitized serving stack runs must already be present in the static lock
graph computed by ``repro.analysis.concurrency``.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import lockorder, sanitize
from repro.core.lockorder import (
    LockOrderError,
    LockOrderGraph,
    TrackedCondition,
    TrackedLock,
    make_condition,
    make_lock,
    make_rlock,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def graph():
    """A private graph so tests never pollute the process-global one."""
    return LockOrderGraph()


def tracked(name, graph, rank=0, inner=None):
    return TrackedLock(inner or threading.Lock(), name, rank=rank, graph=graph)


class TestOrderGraph:
    def test_record_and_snapshot(self, graph):
        graph.record("A", "B", "t0")
        graph.record("B", "C", "t1")
        assert graph.snapshot() == {"A": ["B"], "B": ["C"]}
        assert graph.edge_notes() == {"A -> B": "t0", "B -> C": "t1"}

    def test_duplicate_edge_keeps_first_note(self, graph):
        graph.record("A", "B", "first")
        graph.record("A", "B", "second")
        assert graph.edge_notes() == {"A -> B": "first"}

    def test_cycle_edge_raises_with_provenance(self, graph):
        graph.record("A", "B", "leg one")
        graph.record("B", "C", "leg two")
        with pytest.raises(LockOrderError, match="A -> B -> C"):
            graph.record("C", "A", "closing leg")
        # The refused edge is not recorded.
        assert graph.snapshot() == {"A": ["B"], "B": ["C"]}

    def test_clear_forgets_edges(self, graph):
        graph.record("A", "B", "t")
        graph.clear()
        assert graph.snapshot() == {}


class TestTrackedLocks:
    def test_nested_acquisition_records_edge(self, graph):
        a, b = tracked("A", graph), tracked("B", graph)
        with a:
            with b:
                pass
        assert graph.snapshot() == {"A": ["B"]}

    def test_injected_inversion_raises_before_blocking(self, graph):
        """One thread establishing A->B then trying B->A raises, no hang."""
        a, b = tracked("A", graph), tracked("B", graph)
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError, match="lock-order inversion"):
                a.acquire()
        # The failed acquire left nothing on the held stack: A is free.
        with a:
            pass

    def test_cross_thread_inversion_detected_without_collision(self, graph):
        """Thread one runs A->B to completion; thread two's B->A still raises."""
        a, b = tracked("A", graph), tracked("B", graph)

        def leg_one():
            with a:
                with b:
                    pass

        t = threading.Thread(target=leg_one)
        t.start()
        t.join()

        caught: list[Exception] = []

        def leg_two():
            try:
                with b:
                    with a:
                        pass
            except LockOrderError as exc:
                caught.append(exc)

        t2 = threading.Thread(target=leg_two)
        t2.start()
        t2.join(timeout=10.0)
        assert not t2.is_alive()
        assert len(caught) == 1

    def test_increasing_rank_protocol_allowed(self, graph):
        shards = [tracked("S", graph, rank=i) for i in range(4)]
        with shards[0]:
            with shards[1]:
                with shards[3]:
                    pass
        # Same-group nesting records no group-level self-edge.
        assert graph.snapshot() == {}

    def test_decreasing_rank_raises(self, graph):
        shards = [tracked("S", graph, rank=i) for i in range(4)]
        with shards[2]:
            with pytest.raises(LockOrderError, match="same-group"):
                shards[1].acquire()

    def test_rlock_reentry_is_ignored(self, graph):
        lock = tracked("R", graph, inner=threading.RLock())
        with lock:
            with lock:
                pass
        assert graph.snapshot() == {}

    def test_condition_participates_in_ordering(self, graph):
        cond = TrackedCondition(threading.Condition(), "C", graph=graph)
        inner = tracked("L", graph)
        with cond:
            cond.notify_all()
            with inner:
                pass
        assert graph.snapshot() == {"C": ["L"]}


class TestFactories:
    def test_untracked_without_sanitizer(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        assert isinstance(make_lock("G"), type(threading.Lock()))
        assert isinstance(make_condition("G"), threading.Condition)

    def test_tracked_under_sanitizer(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        assert isinstance(make_lock("G"), TrackedLock)
        assert isinstance(make_rlock("G"), TrackedLock)
        assert isinstance(make_condition("G"), TrackedCondition)


class TestStaticRuntimeCrossValidation:
    """Every runtime-observed edge must exist in the static lock graph."""

    def test_serving_stack_edges_subset_of_static_graph(self, monkeypatch):
        from repro.analysis.concurrency import static_lock_graph
        from repro.analysis.engine import build_context
        from repro.bench.runner import ONE_DIM_FACTORIES
        from repro.serve.coalescer import Coalescer
        from repro.serve.requests import Op, Overloaded, Request
        from repro.serve.server import IndexServer
        from repro.serve.sharding import ShardedStore
        from repro.serve.stats import ServerStats

        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        lockorder.reset()
        data = np.sort(np.random.default_rng(7).uniform(0.0, 1e6, 512))
        try:
            # A normal sanitized workload must run to completion silently.
            server = IndexServer(ONE_DIM_FACTORIES["b+tree"], num_shards=2,
                                 max_batch=8, cache_size=16)
            server.build(data)
            try:
                for key in data[:64]:
                    server.lookup(float(key))
                server.insert(float(data[0]) + 0.5, "v")
                futures = [
                    server.submit(Request(op=Op.LOOKUP, key=float(k)))
                    for k in data[64:128]
                ]
                for fut in futures:
                    fut.result(timeout=10.0)
            finally:
                server.close()

            # Force the one thread-backend nesting deterministically: with
            # the workers never started the queue cannot drain, so the
            # second submit sheds — record_shed() runs under the shard
            # condition, the Coalescer._conds -> ServerStats._lock edge.
            store = ShardedStore(ONE_DIM_FACTORIES["b+tree"], num_shards=1)
            store.build(data)
            stats = ServerStats(1)
            coalescer = Coalescer(store, stats, max_batch=4, capacity=1)
            first = coalescer.submit(Request(op=Op.LOOKUP, key=float(data[0])))
            second = coalescer.submit(Request(op=Op.LOOKUP, key=float(data[0])))
            assert isinstance(second.result(timeout=5.0), Overloaded)
            coalescer.close()  # drains the queued request synchronously
            first.result(timeout=5.0)
            assert stats.shed == 1

            runtime_edges = {
                (src, dst)
                for src, dsts in lockorder.snapshot().items()
                for dst in dsts
            }
            assert ("Coalescer._conds", "ServerStats._lock") in runtime_edges

            ctx = build_context(REPO_ROOT, use_registry=False)
            static_edges = {
                (e["from"], e["to"]) for e in static_lock_graph(ctx)["edges"]
            }
            assert runtime_edges <= static_edges, (
                f"runtime edges {runtime_edges - static_edges} missing from "
                f"the static lock graph {static_edges}"
            )
        finally:
            lockorder.reset()
