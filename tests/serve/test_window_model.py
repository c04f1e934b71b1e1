"""Model-based check of the run queue: random mixed windows vs. a dict.

Hypothesis draws windows that interleave lookups, membership tests,
inserts, deletes and ranges over a tiny key lattice (so one window hits
the same key many times, in every op order) and serves them through
``IndexServer.serve_window``.  The oracle applies the same requests, in
window order, to a plain dict.  Same-key operations share a home shard
and each shard queue is FIFO, so every slot has exactly one right answer
however the window was cut into runs, split at ``max_batch`` or fused
with its neighbours.

One server (and one oracle) lives across all examples of a test, so
state written by one window is read by the next; ``max_batch`` is small
on purpose, to make run splitting the common case.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.runner import MUTABLE_MULTI_DIM_FACTORIES, MUTABLE_ONE_DIM_FACTORIES
from repro.serve import IndexServer, Op, Request

LATTICE = 24                     # writable keys: 0.0 .. 23.0
READ_ONLY = (100.0, 140.0)       # built keys no window ever writes

key = st.integers(0, LATTICE - 1).map(float)
value = st.integers(0, 9)

one_dim_op = st.one_of(
    st.tuples(st.just(Op.LOOKUP), key, st.none()),
    st.tuples(st.just(Op.CONTAINS), key, st.none()),
    st.tuples(st.just(Op.INSERT), key, value),
    st.tuples(st.just(Op.DELETE), key, st.none()),
    st.tuples(st.just(Op.RANGE_1D), key, key),
)

coord = st.integers(0, 5).map(float)
point = st.tuples(coord, coord)
multi_dim_op = st.one_of(
    st.tuples(st.just(Op.POINT_QUERY), point, st.none()),
    st.tuples(st.just(Op.POINT_QUERY), point, st.none()),
    st.tuples(st.just(Op.INSERT), point, value),
    st.tuples(st.just(Op.DELETE), point, st.none()),
)

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _expect_1d(oracle: dict, op: Op, a: float, b: object, ranges_anywhere: bool):
    """The request for one drawn op, and what its slot must hold."""
    if op is Op.LOOKUP:
        return Request(op=op, key=a), oracle.get(a)
    if op is Op.CONTAINS:
        return Request(op=op, key=a), a in oracle
    if op is Op.INSERT:
        oracle[a] = b
        return Request(op=op, key=a, value=b), None
    if op is Op.DELETE:
        return Request(op=op, key=a), oracle.pop(a, None) is not None
    low, high = sorted((a, b))
    if not ranges_anywhere:
        # A range fans out across shards whose queues drain concurrently,
        # so with several shards it only has one right answer over keys
        # that are never written.
        low, high = READ_ONLY[0] + low, READ_ONLY[0] + high
    return (Request(op=op, low=low, high=high),
            sorted((k, v) for k, v in oracle.items() if low <= k <= high))


@pytest.fixture(params=[("thread", 1, None), ("thread", 3, None), ("process", 2, None),
                        ("thread", 3, 4), ("process", 2, 4)],
                ids=["thread-1shard", "thread-3shards", "process-2shards",
                     "thread-3shards-merging", "process-2shards-merging"])
def one_dim(request):
    """A dynamic-PGM server; the ``merging`` variants buffer 4 inserts,
    so LSM merges (and tombstones outliving them) happen under load."""
    backend, shards, buffer_capacity = request.param
    factory = MUTABLE_ONE_DIM_FACTORIES["dynamic-pgm"]
    if buffer_capacity is not None:
        factory = functools.partial(factory, buffer_capacity=buffer_capacity)
    built = np.concatenate([np.arange(0.0, LATTICE, 2.0),
                            np.arange(READ_ONLY[0], READ_ONLY[1])])
    oracle = {float(k): rank for rank, k in enumerate(built)}
    server = IndexServer(factory, num_shards=shards,
                         max_batch=4, backend=backend).build(built)
    yield server, oracle, shards == 1
    server.close()


@settings(max_examples=40, **SETTINGS)
@given(ops=st.lists(one_dim_op, min_size=1, max_size=40))
def test_one_dim_windows_match_the_dict_oracle(one_dim, ops):
    server, oracle, ranges_anywhere = one_dim
    requests, expected = [], []
    for op, a, b in ops:
        request, answer = _expect_1d(oracle, op, a, b, ranges_anywhere)
        requests.append(request)
        expected.append(answer)
    assert server.serve_window(requests) == expected


@pytest.fixture
def multi_dim():
    built = np.array([(x, y) for x in range(0, 6, 2) for y in range(0, 6)], dtype=np.float64)
    oracle = {tuple(p): row for row, p in enumerate(built.tolist())}
    server = IndexServer(MUTABLE_MULTI_DIM_FACTORIES["grid"], num_shards=2,
                         max_batch=4).build(built)
    yield server, oracle
    server.close()


@settings(max_examples=40, **SETTINGS)
@given(ops=st.lists(multi_dim_op, min_size=1, max_size=40))
def test_multi_dim_windows_match_the_dict_oracle(multi_dim, ops):
    server, oracle = multi_dim
    requests, expected = [], []
    for op, p, v in ops:
        if op is Op.POINT_QUERY:
            requests.append(Request(op=op, point=p))
            expected.append(oracle.get(p))
        elif op is Op.INSERT:
            requests.append(Request(op=op, point=p, value=v))
            expected.append(None)
            oracle[p] = v
        else:
            requests.append(Request(op=op, point=p))
            expected.append(oracle.pop(p, None) is not None)
    assert server.serve_window(requests) == expected
