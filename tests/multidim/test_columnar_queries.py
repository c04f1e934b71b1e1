"""Columnar range and kNN: oracle parity, arm parity, edge cases, counters.

ZM-index and Flood answer ``range_query`` / ``range_query_batch`` from
``_range_columns`` (a slice plus a vectorised in-box mask), and every
family without a guided kNN runs the one generic ``knn_query`` over those
columns.  These tests hold the rewritten paths to a brute-force oracle —
the exact ``(distance, point, value)`` order for kNN — on the inputs that
break columnar code: duplicate points, equidistant neighbours, inverted,
degenerate, out-of-domain and infinite boxes, ``k = 0`` and ``k > n``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import MULTI_DIM_FACTORIES
from repro.core.interfaces import point_distances
from repro.multidim import zm_index
from repro.multidim._cells import cell_runs
from repro.multidim.flood import FloodIndex
from repro.multidim.sprig import SPRIGIndex
from repro.multidim.zm_index import ZMIndex
from repro.serve import ShardedStore

#: The two columnar families plus one family on the default hook.
FAMILIES = ["zm-index", "flood", "ml-index"]
INF = float("inf")


def oracle_range(points: np.ndarray, lo, hi) -> list[tuple[tuple[float, ...], int]]:
    inside = np.all((points >= np.asarray(lo)) & (points <= np.asarray(hi)), axis=1)
    return sorted((tuple(points[i].tolist()), int(i)) for i in np.flatnonzero(inside))


def oracle_knn(points: np.ndarray, q, k: int) -> list[tuple[tuple[float, ...], int]]:
    if k <= 0:
        return []
    dists = point_distances(points, np.asarray(q, dtype=np.float64))
    ranked = sorted(zip(dists.tolist(), map(tuple, points.tolist()), range(len(points))))
    return [(p, v) for _, p, v in ranked[:k]]


@st.composite
def datasets(draw):
    """Lattice points (duplicates, equidistant neighbours) mixed with floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 5, 40, 300]))
    side = draw(st.sampled_from([1, 3, 8, 1000]))
    pts = rng.integers(0, side + 1, (n, 2)).astype(np.float64)
    if draw(st.booleans()):
        pts[rng.random(n) < 0.5] += rng.uniform(0.0, 1.0, (1, 2))
    return pts


@st.composite
def boxes(draw, points):
    lo_data, hi_data = points.min(axis=0), points.max(axis=0)
    span = np.maximum(hi_data - lo_data, 1.0)
    kind = draw(st.sampled_from(["random", "inverted", "outside", "degenerate",
                                 "infinite", "everything"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = lo_data - 0.2 * span + rng.uniform(0.0, 1.4, 2) * span
    hi = lo + rng.uniform(0.0, 0.8, 2) * span
    if kind == "inverted":
        lo, hi = hi + 0.5, lo
    elif kind == "outside":
        lo, hi = hi_data + span, hi_data + 2 * span
    elif kind == "degenerate":
        lo = hi = points[rng.integers(0, len(points))].copy()
    elif kind == "infinite":
        lo, hi = np.array([-INF, lo[1]]), np.array([hi[0], INF])
    elif kind == "everything":
        lo, hi = np.full(2, -INF), np.full(2, INF)
    return lo, hi


def _query(points: np.ndarray, draw) -> np.ndarray:
    kind = draw(st.sampled_from(["on-point", "near", "far"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "on-point":
        return points[rng.integers(0, len(points))].copy()
    if kind == "far":
        return np.array([1e6, -1e6])
    span = np.maximum(points.max(axis=0) - points.min(axis=0), 1.0)
    return points.min(axis=0) + rng.uniform(-0.3, 1.3, 2) * span


@pytest.mark.parametrize("name", FAMILIES)
class TestOracleParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_range_and_batch_match_the_oracle(self, name, data):
        points = data.draw(datasets())
        index = MULTI_DIM_FACTORIES[name]().build(points)
        box_list = [data.draw(boxes(points)) for _ in range(4)]
        lows = np.array([lo for lo, _ in box_list])
        highs = np.array([hi for _, hi in box_list])
        batch = index.range_query_batch(lows, highs)
        for (lo, hi), got_batch in zip(box_list, batch):
            got = index.range_query(lo, hi)
            assert got == got_batch
            assert sorted(got) == oracle_range(points, lo, hi)
            assert all(type(c) is float for p, _ in got for c in p)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_knn_matches_the_oracle_in_exact_order(self, name, data):
        points = data.draw(datasets())
        index = MULTI_DIM_FACTORIES[name]().build(points)
        q = _query(points, data.draw)
        k = data.draw(st.sampled_from([0, 1, 2, 5, len(points), len(points) + 3]))
        assert index.knn_query(q, k) == oracle_knn(points, q, k)

    def test_equidistant_neighbours_break_ties_on_point_then_value(self, name):
        # Four points on a circle of radius 1 around the origin, one twice.
        points = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0],
                           [1.0, 0.0], [3.0, 3.0]])
        index = MULTI_DIM_FACTORIES[name]().build(points)
        got = index.knn_query([0.0, 0.0], 4)
        assert got == [((-1.0, 0.0), 3), ((0.0, -1.0), 2), ((0.0, 1.0), 0), ((1.0, 0.0), 1)]
        assert index.knn_query([0.0, 0.0], 5)[-1] == ((1.0, 0.0), 4)

    def test_nan_behaviour_is_pinned(self, name):
        # NaN queries are not yet part of the typed input domain: ZM and
        # Flood answer empty, ML-index's iDistance mapping raises.
        points = np.random.default_rng(3).uniform(0.0, 100.0, (200, 2))
        index = MULTI_DIM_FACTORIES[name]().build(points)
        nan = float("nan")
        boxes_with_nan = [([nan, 10.0], [50.0, 50.0]), ([10.0, 10.0], [nan, 50.0]),
                          ([nan, nan], [nan, nan])]
        if name == "ml-index":
            for lo, hi in boxes_with_nan:
                with pytest.raises(ValueError):
                    index.range_query(lo, hi)
            with pytest.raises(ValueError):
                index.knn_query([nan, 50.0], 3)
            return
        for lo, hi in boxes_with_nan:
            assert index.range_query(lo, hi) == []
        lows, highs = (np.array(c) for c in zip(*boxes_with_nan))
        assert index.range_query_batch(lows, highs) == [[], [], []]
        assert index.knn_query([nan, 50.0], 3) == []
        assert index.knn_query([nan, nan], 2) == []


class TestEmptyIndex:
    """An empty build answers empty, whatever ``dims`` it then reports."""

    @pytest.mark.parametrize("name", sorted(MULTI_DIM_FACTORIES))
    def test_every_family_answers_empty(self, name):
        index = MULTI_DIM_FACTORIES[name]().build(np.empty((0, 2)), [])
        assert index.knn_query([0.5, 0.5], 3) == []
        assert index.range_query([0.0, 0.0], [1.0, 1.0]) == []
        assert index.range_query_batch(np.zeros((1, 2)), np.ones((1, 2))) == [[]]

    @pytest.mark.parametrize("name", sorted(MULTI_DIM_FACTORIES))
    def test_sharded_store_with_empty_shards(self, name):
        # Seven points far closer together than one routing cell share a
        # code with each other; every quantile cut falls on that code, so
        # one shard takes all eight points and the other three are empty.
        points = np.vstack([3.0 + np.arange(7.0)[:, None] * [1e-9, 0.0], [[100.0, 100.0]]])
        store = ShardedStore(MULTI_DIM_FACTORIES[name], num_shards=4).build(points)
        assert sorted(len(shard) for shard in store.shards) == [0, 0, 0, 8]
        assert store.knn_query([0.0, 0.0], 3) == oracle_knn(points, [0.0, 0.0], 3)


class TestBoxEdgeRounding:
    """A neighbour exactly ``r`` away along one axis stays in the box."""

    @staticmethod
    def _tie_off_the_box() -> tuple[np.ndarray, np.ndarray, float]:
        # q = (q0, 0); p1 = (x1, 0) sits d = q0 - x1 to the left and
        # p2 = (q0, d) the same d above.  Pick q0, x1 so that q0 - d
        # rounds *above* x1: a plain [q - d, q + d] box drops p1.
        rng = np.random.default_rng(0)
        while True:
            q0 = float(rng.uniform(0.1, 10.0))
            x1 = float(rng.uniform(0.0, q0))
            d = q0 - x1
            if q0 - d > x1:
                points = np.array([[x1, 0.0], [q0, d]])
                return points, np.array([q0, 0.0]), d

    def test_the_case_exists_and_both_points_are_equidistant(self):
        points, q, d = self._tie_off_the_box()
        assert point_distances(points, q).tolist() == [d, d]
        assert q[0] - d > points[0, 0]

    @pytest.mark.parametrize("name", FAMILIES)
    def test_tie_breaks_on_the_point_even_off_the_rounded_box(self, name):
        points, q, d = self._tie_off_the_box()
        index = MULTI_DIM_FACTORIES[name]().build(points)
        # Start the expansion at exactly d, the radius that exposes it.
        with mock.patch.object(type(index), "_knn_seed_radius", return_value=d):
            assert index.knn_query(q, 1) == [(tuple(points[0].tolist()), 0)]


def _curve_crossing_index(seed: int, n: int, bits: int) -> tuple[ZMIndex, np.ndarray]:
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, (n, 2))
    points[: n // 4] = np.round(points[: n // 4] * 8) / 8  # duplicate codes
    return ZMIndex(bits=bits).build(points), points


class TestZMArms:
    """The mask arm and the BIGMIN walk of ``_box_rows`` agree."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 30, 900]),
           st.sampled_from([2, 5, 16]), st.integers(0, 2**32 - 1))
    def test_arms_return_the_same_rows(self, seed, n, bits, box_seed):
        index, points = _curve_crossing_index(seed, n, bits)
        rng = np.random.default_rng(box_seed)
        # Boxes straddling the domain's middle cross the curve's largest
        # excursions; small ones hit the in-box/off-box block ends.
        centre = rng.uniform(0.3, 0.7, 2)
        half = rng.uniform(0.0, 0.3, 2)
        lo, hi = centre - half, centre + half
        answers = []
        for mask in (True, False):
            with mock.patch.object(zm_index, "_use_mask", return_value=mask):
                answers.append(index.range_query(lo, hi))
        assert answers[0] == answers[1] == index.range_query(lo, hi)
        assert sorted(answers[0]) == oracle_range(points, lo, hi)

    def test_walk_jumps_wide_slices_and_counts_truthfully(self):
        # A small box across the domain's middle: few cells, but its code
        # interval spans most of the curve, so the predicate walks.
        index, points = _curve_crossing_index(1, 5000, 6)
        lo, hi = np.array([0.45, 0.45]), np.array([0.55, 0.55])
        index.stats.reset_counters()
        with mock.patch.object(zm_index, "_use_mask", return_value=True):
            masked = index.range_query(lo, hi)
        mask_scan = index.stats.keys_scanned
        assert index.stats.nodes_visited == 0
        index.stats.reset_counters()
        walked = index.range_query(lo, hi)
        assert walked == masked
        assert index.stats.nodes_visited > 0  # BIGMIN jumps taken
        assert len(walked) <= index.stats.keys_scanned < mask_scan

    def test_predicate_compares_width_with_cells(self):
        assert zm_index._use_mask(0, 1)
        assert zm_index._use_mask(10, 10)
        assert not zm_index._use_mask(11, 10)

    def test_duplicate_runs_longer_than_the_error_window(self):
        # 2 bits per dimension: 16 codes, runs of ~60 points each, far
        # longer than the model's epsilon window around the prediction.
        points = np.round(np.random.default_rng(1).uniform(0.0, 100.0, (1000, 2)))
        index = ZMIndex(bits=2, epsilon=4).build(points)
        for lo, hi in [((60.0, 85.0), (92.0, 97.0)), ((0.0, 0.0), (30.0, 100.0))]:
            assert sorted(index.range_query(lo, hi)) == oracle_range(points, lo, hi)


class TestCounters:
    @pytest.mark.parametrize("name", ["zm-index", "flood"])
    def test_scanned_covers_results_and_counters_only_grow(self, name):
        rng = np.random.default_rng(9)
        points = rng.uniform(0.0, 100.0, (3000, 2))
        index = MULTI_DIM_FACTORIES[name]().build(points)
        index.stats.reset_counters()
        before = index.stats.snapshot()
        for _ in range(20):
            lo = rng.uniform(0.0, 90.0, 2)
            scanned = index.stats.keys_scanned
            got = index.range_query(lo, lo + rng.uniform(0.0, 20.0, 2))
            assert index.stats.keys_scanned - scanned >= len(got)
            scanned = index.stats.keys_scanned
            got = index.knn_query(rng.uniform(0.0, 100.0, 2), 7)
            assert index.stats.keys_scanned - scanned >= len(got)
            after = index.stats.snapshot()
            assert all(after[key] >= before[key] for key in before)
            before = after

    def test_zm_knn_finishes_in_one_range_call(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0.0, 1.0, (20_000, 2))
        index = ZMIndex().build(points)
        for q in rng.uniform(0.0, 1.0, (30, 2)):
            with mock.patch.object(ZMIndex, "_range_columns", autospec=True,
                                   side_effect=ZMIndex._range_columns) as spy:
                got = index.knn_query(q, 10)
            assert spy.call_count == 1
            assert got == oracle_knn(points, q, 10)


def _old_cell_loop(sorted_ids: np.ndarray) -> list[tuple[tuple[int, ...], int, int]]:
    """The per-row run split the grid families used before ``cell_runs``."""
    runs = []
    start, n = 0, sorted_ids.shape[0]
    while start < n:
        end = start + 1
        while end < n and np.array_equal(sorted_ids[end], sorted_ids[start]):
            end += 1
        runs.append((tuple(int(c) for c in sorted_ids[start]), start, end))
        start = end
    return runs


class TestCellRuns:
    @pytest.mark.parametrize("ids", [
        np.empty((0, 2), dtype=np.int64),
        np.array([[3, 1]]),
        np.array([[0], [0], [0]]),
        np.array([[0, 0], [0, 1], [0, 1], [1, 0], [2, 2]]),
        np.empty((4, 0), dtype=np.int64),
    ])
    def test_matches_the_old_loop(self, ids):
        assert cell_runs(ids) == _old_cell_loop(ids)

    @pytest.mark.parametrize("cls", [FloodIndex, SPRIGIndex])
    @pytest.mark.parametrize("kind", ["single-point", "all-duplicate", "sort-key-ties",
                                      "random", "empty"])
    def test_cells_equal_the_old_layout(self, cls, kind):
        rng = np.random.default_rng(6)
        points = {
            "single-point": np.array([[5.0, 5.0]]),
            "all-duplicate": np.full((50, 2), 7.0),
            "sort-key-ties": np.column_stack([rng.uniform(0, 1, 200),
                                              rng.integers(0, 3, 200).astype(float)]),
            "random": rng.uniform(0, 1, (500, 2)),
            "empty": np.empty((0, 2)),
        }[kind]
        values = [("v", i) for i in range(len(points))]
        index = cls().build(points, values)
        expected = _old_layout(index, points, values)
        assert list(index._cells) == list(expected)
        for cid, (keys, pts, vals) in expected.items():
            got_keys, got_pts, got_vals = index._cells[cid]
            assert np.array_equal(got_keys, keys) and np.array_equal(got_pts, pts)
            assert list(got_vals) == list(vals)
        if len(points):
            assert index.stats.size_bytes == (
                sum(b.size * 8 for b in index._boundaries)
                + len(expected) * 48 + len(points) * 8
            )


def _old_layout(index, points: np.ndarray, values: list) -> dict:
    if len(points) == 0:
        return {}
    if isinstance(index, FloodIndex):
        ids = index._cell_ids(points)
        sort_dim = index.sort_dim
        order = np.lexsort((points[:, sort_dim],) + tuple(ids[:, ::-1].T))
    else:
        ids = np.column_stack([
            np.clip(np.searchsorted(index._boundaries[d][1:-1], points[:, d], side="right"),
                    0, index.cells_per_dim - 1)
            for d in range(points.shape[1])
        ])
        sort_dim = points.shape[1] - 1
        order = np.lexsort((points[:, sort_dim],) + tuple(ids.T[::-1]))
    sorted_pts = points[order]
    sorted_vals = [values[i] for i in order]
    return {
        cid: (sorted_pts[s:e, sort_dim], sorted_pts[s:e], sorted_vals[s:e])
        for cid, s, e in _old_cell_loop(ids[order])
    }
