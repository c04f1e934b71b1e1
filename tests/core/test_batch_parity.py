"""Batch/scalar parity: ``lookup_batch`` must equal a loop of ``lookup``.

The contract of the batch query API (the vectorized overrides in the hot
indexes as much as the generic loop fallback) is strict element-wise
equality with the scalar path — including misses, duplicate keys at the
array boundary, and empty indexes.  These tests enforce it for every
registered factory so a future vectorized override cannot silently
diverge.  A test taking the ``both_batch_sides`` fixture runs twice, with
every batch on the family kernel and on the scalar loop, so a test batch
smaller than a family's ``batch_crossover`` still reaches its kernel.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.bench.runner import MULTI_DIM_FACTORIES, ONE_DIM_FACTORIES

RNG = np.random.default_rng(7)

#: 1-d build keys with duplicate runs at both boundaries and in the middle.
KEYS_1D = np.sort(RNG.uniform(0.0, 1000.0, 400))
KEYS_1D[:3] = KEYS_1D[0]
KEYS_1D[-3:] = KEYS_1D[-1]
KEYS_1D[200:203] = KEYS_1D[200]

#: Queries covering hits, duplicated keys, misses inside and outside range.
QUERIES_1D = np.concatenate([
    KEYS_1D[[0, 1, 2, 199, 200, 201, 202, 397, 398, 399]],
    RNG.choice(KEYS_1D, 30),
    RNG.uniform(-50.0, 1050.0, 30),
    [KEYS_1D[0] - 1.0, KEYS_1D[-1] + 1.0],
])

POINTS_ND = RNG.uniform(0.0, 100.0, (250, 2))
# Duplicate coordinates: same point indexed twice (last value wins on some
# indexes, first on others — parity only requires batch == scalar).
POINTS_ND[40] = POINTS_ND[41]
POINTS_ND[120] = POINTS_ND[121]
QUERIES_ND = np.vstack([
    POINTS_ND[RNG.integers(0, POINTS_ND.shape[0], 30)],
    RNG.uniform(-10.0, 110.0, (15, 2)),
    POINTS_ND[[40, 41, 120, 121]],          # duplicate-coordinate probes
    RNG.uniform(-500.0, -400.0, (4, 2)),    # far out-of-domain
    np.repeat(POINTS_ND[[7]], 3, axis=0),   # repeated identical query
])

#: Range boxes: tight around data points, a whole-domain box, a
#: fully-outside box, and an inverted (lo > hi) box.
BOXES_ND = (
    np.vstack([
        POINTS_ND[:6] - 2.0,
        [[-10.0, -10.0]],
        [[200.0, 200.0]],
        [[50.0, 50.0]],
    ]),
    np.vstack([
        POINTS_ND[:6] + 2.0,
        [[110.0, 110.0]],
        [[210.0, 210.0]],
        [[40.0, 40.0]],  # inverted: hi < lo
    ]),
)


@pytest.mark.parametrize("name", sorted(ONE_DIM_FACTORIES))
class TestOneDimBatchParity:
    def test_lookup_batch_matches_scalar_loop(self, name, both_batch_sides):
        index = ONE_DIM_FACTORIES[name]().build(KEYS_1D)
        batch = index.lookup_batch(QUERIES_1D)
        scalar = [index.lookup(float(q)) for q in QUERIES_1D]
        assert batch.dtype == object
        assert batch.shape == (QUERIES_1D.size,)
        for i, (b, s) in enumerate(zip(batch, scalar)):
            assert b == s, f"{name}: query {QUERIES_1D[i]} -> batch {b!r}, scalar {s!r}"

    def test_contains_batch_matches_scalar(self, name, both_batch_sides):
        index = ONE_DIM_FACTORIES[name]().build(KEYS_1D)
        got = index.contains_batch(QUERIES_1D)
        expect = [index.contains(float(q)) for q in QUERIES_1D]
        assert got.dtype == bool
        assert list(got) == expect

    def test_empty_index_all_misses(self, name, both_batch_sides):
        index = ONE_DIM_FACTORIES[name]().build([])
        batch = index.lookup_batch(QUERIES_1D[:5])
        assert all(r is None for r in batch)
        assert index.lookup_batch([]).shape == (0,)

    def test_rejects_2d_query_array(self, name):
        index = ONE_DIM_FACTORIES[name]().build(KEYS_1D[:20])
        with pytest.raises(ValueError):
            index.lookup_batch(np.ones((3, 3)))


def _mutated_dynamic_pgm():
    """A dynamic PGM whose every layer holds keys: a 4-key buffer makes
    merges cascade through several levels, and the writes overwrite,
    delete, re-insert and store ``None`` values."""
    from repro.onedim import DynamicPGMIndex

    rng = np.random.default_rng(11)
    index = DynamicPGMIndex(epsilon=4, buffer_capacity=4).build(KEYS_1D)
    fresh = np.round(rng.uniform(-50.0, 1050.0, 60), 1)
    pool = np.concatenate([KEYS_1D[::7], fresh, [0.0, -0.0]])
    written = []
    for step in range(400):
        key = float(rng.choice(pool))
        if rng.random() < 0.55:
            index.insert(key, None if step % 9 == 0 else f"v{step}")
        else:
            index.delete(key)
        written.append(key)
    index.insert(1234.5, "buffered")        # the last merge may have emptied the buffer
    return index, np.array([*written, 1234.5])


@pytest.mark.usefixtures("both_batch_sides")
class TestMutatedDynamicPGMParity:
    """The base-plus-delta kernel over merged levels, buffer and tombstones,
    with every level's probe (and merge-time pruning) on each side of the
    dispatch."""

    def test_every_layer_is_populated(self):
        index, _ = _mutated_dynamic_pgm()
        assert sum(level is not None for level in index._static) >= 2
        assert index._buffer and index._deleted

    def test_lookup_and_contains_batch_match_scalar_loop(self):
        index, written = _mutated_dynamic_pgm()
        queries = np.concatenate([QUERIES_1D, written, [np.inf, -np.inf, -0.0]])
        batch = index.lookup_batch(queries)
        scalar = [index.lookup(float(q)) for q in queries]
        assert batch.dtype == object
        assert batch.tolist() == scalar
        contains = index.contains_batch(queries)
        assert contains.tolist() == [index.contains(float(q)) for q in queries]

    def test_range_agrees_with_lookups(self):
        index, written = _mutated_dynamic_pgm()
        items = dict(index.range_query(-np.inf, np.inf))
        assert len(items) == len(index)
        probe = np.unique(np.concatenate([KEYS_1D, written]))
        for key, value in zip(probe.tolist(), index.lookup_batch(probe).tolist()):
            assert items.get(key) == value


@pytest.mark.parametrize("name", sorted(MULTI_DIM_FACTORIES))
class TestMultiDimBatchParity:
    def test_point_query_batch_matches_scalar_loop(self, name, both_batch_sides):
        index = MULTI_DIM_FACTORIES[name]().build(POINTS_ND)
        batch = index.point_query_batch(QUERIES_ND)
        scalar = [index.point_query(q) for q in QUERIES_ND]
        assert batch.dtype == object
        assert batch.shape == (QUERIES_ND.shape[0],)
        for i, (b, s) in enumerate(zip(batch, scalar)):
            assert b == s, f"{name}: query {QUERIES_ND[i]} -> batch {b!r}, scalar {s!r}"

    def test_rejects_1d_query_array(self, name):
        index = MULTI_DIM_FACTORIES[name]().build(POINTS_ND)
        with pytest.raises(ValueError):
            index.point_query_batch(QUERIES_ND[0])

    def test_empty_batch_and_empty_index(self, name, both_batch_sides):
        index = MULTI_DIM_FACTORIES[name]().build(POINTS_ND)
        assert index.point_query_batch(np.empty((0, 2))).shape == (0,)
        empty = MULTI_DIM_FACTORIES[name]().build(np.empty((0, 2)))
        batch = empty.point_query_batch(QUERIES_ND[:5])
        assert all(r is None for r in batch)

    def test_out_of_domain_queries_all_miss(self, name, both_batch_sides):
        index = MULTI_DIM_FACTORIES[name]().build(POINTS_ND)
        far = np.vstack([
            RNG.uniform(-500.0, -400.0, (6, 2)),
            RNG.uniform(400.0, 500.0, (6, 2)),
        ])
        batch = index.point_query_batch(far)
        scalar = [index.point_query(q) for q in far]
        assert all(r is None for r in scalar)
        assert list(batch) == scalar

    def test_range_query_batch_matches_scalar_loop(self, name):
        index = MULTI_DIM_FACTORIES[name]().build(POINTS_ND)
        lows, highs = BOXES_ND
        batch = index.range_query_batch(lows, highs)
        assert len(batch) == lows.shape[0]
        for i in range(lows.shape[0]):
            scalar = index.range_query(lows[i], highs[i])
            assert batch[i] == scalar, (
                f"{name}: box {i} -> batch {batch[i]!r}, scalar {scalar!r}")

    def test_range_query_batch_rejects_mismatched_shapes(self, name):
        index = MULTI_DIM_FACTORIES[name]().build(POINTS_ND)
        with pytest.raises(ValueError):
            index.range_query_batch(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            index.range_query_batch(np.zeros(2), np.zeros(2))


#: The families with a 1-d ``_lookup_batch`` / multi-d
#: ``_point_query_batch`` kernel behind the public batch entry point.
KERNELS_1D = ["binary-search", "rmi", "pgm", "radix-spline", "dynamic-pgm"]
KERNELS_ND = ["zm-index", "flood", "grid", "lisa"]

_COUNTERS = ("comparisons", "keys_scanned", "nodes_visited", "model_predictions",
             "corrections")


@contextmanager
def _spy(cls, method):
    """Record the row count of every call of ``cls.method`` in the block."""
    calls: list[int] = []
    real = getattr(cls, method)

    def recording(self, qs, *args):
        calls.append(len(qs))
        return real(self, qs, *args)

    with mock.patch.object(cls, method, recording):
        yield calls


def _rows(queries, count):
    """``count`` rows cycling through ``queries``: hits, misses, ties."""
    return np.resize(queries, (count, *queries.shape[1:]))


def _counters(index):
    return {name: getattr(index.stats, name) for name in _COUNTERS}


#: Build sets for the crossover cases: the parity sets plus a key (point)
#: at zero, which the ``-0.0`` probes below must hit.
KEYS_ZERO_1D = np.sort(np.append(KEYS_1D, 0.0))
POINTS_ZERO_ND = np.vstack([POINTS_ND, [[0.0, 0.0]]])

#: Rows every crossover case's batches start with: NaN, ±inf and -0.0.
SPECIAL_1D = np.array([np.nan, np.inf, -np.inf, -0.0])
SPECIAL_ND = np.array([
    [np.nan, POINTS_ND[5, 1]], [POINTS_ND[5, 0], np.nan], [np.nan, np.nan],
    [np.inf, POINTS_ND[6, 1]], [POINTS_ND[6, 0], -np.inf], [-np.inf, np.inf],
    [-0.0, -0.0], [-0.0, 0.0],
])


def _crossover_batches(special, queries, rows):
    """Consecutive ``rows``-row batches over ``special`` then ``queries``
    (cycling): the batches holding the special rows, plus one more."""
    count = rows * (1 - (-special.shape[0] // rows))
    pool = _rows(np.concatenate([special, queries]), count)
    return [pool[i:i + rows] for i in range(0, count, rows)]


def _crossover_cases(names, factories):
    """``(name, rows)`` for rows k - 1, k and k + 1 around each family's k."""
    cases = []
    for name in names:
        k = type(factories[name]()).batch_crossover
        cases += [(name, rows) for rows in (k - 1, k, k + 1) if rows >= 1]
    return cases


class TestVectorizedOverridesStayVectorized:
    """Guard: the hot indexes must not fall back to the scalar loop."""

    @pytest.mark.parametrize("name", KERNELS_1D)
    def test_override_defined_on_class(self, name):
        from repro.core.interfaces import OneDimIndex

        cls = type(ONE_DIM_FACTORIES[name]())
        assert cls._lookup_batch is not OneDimIndex._lookup_batch
        assert cls.lookup_batch is OneDimIndex.lookup_batch  # the one entry point

    @pytest.mark.parametrize("name", ["rmi", "pgm", "radix-spline"])
    def test_batch_counters_aggregate(self, name):
        index = ONE_DIM_FACTORIES[name]().build(KEYS_1D)
        index.stats.reset_counters()
        index.lookup_batch(QUERIES_1D)
        assert index.stats.model_predictions >= QUERIES_1D.size
        assert index.stats.corrections > 0

    @pytest.mark.parametrize("name", KERNELS_ND)
    def test_multi_dim_point_override_defined_on_class(self, name):
        from repro.core.interfaces import MultiDimIndex

        cls = type(MULTI_DIM_FACTORIES[name]())
        assert cls._point_query_batch is not MultiDimIndex._point_query_batch
        assert cls.point_query_batch is MultiDimIndex.point_query_batch

    @pytest.mark.parametrize("name", ["flood", "grid"])
    def test_multi_dim_range_override_defined_on_class(self, name):
        from repro.core.interfaces import MultiDimIndex

        cls = type(MULTI_DIM_FACTORIES[name]())
        assert cls.range_query_batch is not MultiDimIndex.range_query_batch

    @pytest.mark.parametrize("name", KERNELS_1D)
    def test_kernel_runs_at_the_crossover_and_not_below(self, name):
        index = ONE_DIM_FACTORIES[name]().build(KEYS_1D)
        k = type(index).batch_crossover
        for rows, expect in ((k - 1, []), (k, [k]), (k + 1, [k + 1])):
            if rows < 1:
                continue
            with _spy(type(index), "_lookup_batch") as calls:
                index.lookup_batch(QUERIES_1D[:rows])
            assert calls == expect, (name, rows)

    @pytest.mark.parametrize("name", KERNELS_ND)
    def test_multi_dim_kernel_runs_at_the_crossover_and_not_below(self, name):
        index = MULTI_DIM_FACTORIES[name]().build(POINTS_ND)
        k = type(index).batch_crossover
        queries = _rows(QUERIES_ND, k + 1)
        for rows, expect in ((k - 1, []), (k, [k]), (k + 1, [k + 1])):
            if rows < 1:
                continue
            with _spy(type(index), "_point_query_batch") as calls:
                index.point_query_batch(queries[:rows])
            assert calls == expect, (name, rows)

    def test_pgm_find_batch_takes_the_scalar_locate_below_the_crossover(self):
        from repro.onedim import PGMIndex

        index = PGMIndex().build(KEYS_1D)
        k = PGMIndex.batch_crossover
        for rows, kernel in ((k - 1, False), (k, True)):
            qs = QUERIES_1D[:rows]
            with _spy(PGMIndex, "_locate_batch") as calls:
                pos, hit = index._find_batch(qs)
            assert bool(calls) == kernel
            assert pos.dtype == np.int64
            expect = [index._find(float(q)) for q in qs]
            assert [int(p) if h else -1 for p, h in zip(pos, hit)] == expect

    @pytest.mark.parametrize("name", KERNELS_1D + KERNELS_ND)
    def test_crossover_is_a_class_constant(self, name):
        import inspect

        factories = {**ONE_DIM_FACTORIES, **MULTI_DIM_FACTORIES}
        cls = type(factories[name]())
        assert "batch_crossover" in vars(cls)
        assert isinstance(cls.batch_crossover, int) and cls.batch_crossover >= 1
        assert "batch_crossover" not in inspect.signature(cls).parameters
        assert "batch_crossover" not in vars(factories[name]())


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCrossoverParity:
    """Rows k - 1, k and k + 1 around each family's ``batch_crossover``,
    in batches that carry NaN, ±inf and -0.0 rows.

    Answers equal the scalar loop on both sides.  Below k the batch call
    *is* the scalar loop, so its counters equal the loop's exactly; from
    k up they are the kernel's per-batch aggregates.
    """

    @pytest.mark.parametrize("name, rows", _crossover_cases(KERNELS_1D, ONE_DIM_FACTORIES))
    def test_one_dim_answers_and_counters(self, name, rows):
        index = ONE_DIM_FACTORIES[name]().build(KEYS_ZERO_1D)
        batches = _crossover_batches(SPECIAL_1D, QUERIES_1D, rows)
        index.stats.reset_counters()
        batch = [answer for qs in batches for answer in index.lookup_batch(qs).tolist()]
        batch_counters = _counters(index)
        index.stats.reset_counters()
        scalar = [index.lookup(float(q)) for qs in batches for q in qs]
        scalar_counters = _counters(index)
        assert batch == scalar
        assert scalar[3] is not None  # -0.0 hits the key 0.0
        contains = [hit for qs in batches for hit in index.contains_batch(qs).tolist()]
        assert contains == [s is not None for s in scalar]
        if rows < type(index).batch_crossover:
            assert batch_counters == scalar_counters
        else:
            index.stats.reset_counters()
            for qs in batches:
                index._lookup_batch(qs)
            assert batch_counters == _counters(index)

    @pytest.mark.parametrize("name, rows", _crossover_cases(KERNELS_ND, MULTI_DIM_FACTORIES))
    def test_multi_dim_answers_and_counters(self, name, rows):
        index = MULTI_DIM_FACTORIES[name]().build(POINTS_ZERO_ND)
        batches = _crossover_batches(SPECIAL_ND, QUERIES_ND, rows)
        index.stats.reset_counters()
        batch = [answer for qs in batches for answer in index.point_query_batch(qs).tolist()]
        batch_counters = _counters(index)
        index.stats.reset_counters()
        scalar = [index.point_query(q) for qs in batches for q in qs]
        scalar_counters = _counters(index)
        assert batch == scalar
        assert scalar[6] == scalar[7] == POINTS_ND.shape[0]  # -0.0 hits the point at zero
        if rows < type(index).batch_crossover:
            assert batch_counters == scalar_counters
        else:
            index.stats.reset_counters()
            for qs in batches:
                index._point_query_batch(qs)
            assert batch_counters == _counters(index)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_mutated_dynamic_pgm_around_the_crossover(self, offset):
        from repro.onedim import DynamicPGMIndex

        index, written = _mutated_dynamic_pgm()
        rows = DynamicPGMIndex.batch_crossover + offset
        queries = np.concatenate([SPECIAL_1D, written, QUERIES_1D])
        for start in range(0, queries.size - rows, rows):
            qs = queries[start:start + rows]
            assert index.lookup_batch(qs).tolist() == [index.lookup(float(q)) for q in qs]
