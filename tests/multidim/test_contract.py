"""Cross-index contract tests for every multi-dimensional index."""

import numpy as np
import pytest

from repro.bench.runner import MULTI_DIM_FACTORIES, MUTABLE_MULTI_DIM_FACTORIES
from repro.data import load_nd, range_queries_nd
from tests.conftest import brute_force_knn, brute_force_range_nd

ALL = list(MULTI_DIM_FACTORIES)
MUTABLE = list(MUTABLE_MULTI_DIM_FACTORIES)

# Indexes whose kNN goes through guided search or box expansion.
KNN_CAPABLE = ["r-tree", "kd-tree", "quadtree", "grid", "zm-index",
               "ml-index", "flood", "sprig", "tsunami", "lisa", "ai+r-tree"]


@pytest.fixture(params=ALL, ids=ALL)
def any_factory(request):
    return MULTI_DIM_FACTORIES[request.param]


@pytest.fixture(params=MUTABLE, ids=MUTABLE)
def mutable_factory(request):
    return MUTABLE_MULTI_DIM_FACTORIES[request.param]


@pytest.fixture(params=KNN_CAPABLE, ids=KNN_CAPABLE)
def knn_factory(request):
    return MULTI_DIM_FACTORIES[request.param]


class TestPointQueries:
    def test_all_points_found_uniform(self, any_factory, uniform_points):
        index = any_factory().build(uniform_points)
        for i in range(0, uniform_points.shape[0], 101):
            assert index.point_query(uniform_points[i]) == i

    def test_all_points_found_clustered(self, any_factory, clustered_points):
        index = any_factory().build(clustered_points)
        for i in range(0, clustered_points.shape[0], 101):
            assert index.point_query(clustered_points[i]) == i

    def test_absent_point_inside_hull(self, any_factory, uniform_points):
        index = any_factory().build(uniform_points)
        centre = uniform_points.mean(axis=0) + 0.123456789
        point_set = {tuple(p) for p in uniform_points}
        if tuple(centre) not in point_set:
            assert index.point_query(centre) is None

    def test_absent_point_far_outside(self, any_factory, uniform_points):
        index = any_factory().build(uniform_points)
        assert index.point_query([1e9, -1e9]) is None

    def test_custom_values(self, any_factory):
        pts = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
        index = any_factory().build(pts, values=["a", "b", "c"])
        assert index.point_query([5.0, 5.0]) == "b"

    def test_len(self, any_factory, uniform_points):
        index = any_factory().build(uniform_points)
        assert len(index) == uniform_points.shape[0]


class TestRangeQueries:
    @pytest.mark.parametrize("selectivity", [0.0005, 0.01, 0.1])
    def test_matches_brute_force(self, any_factory, clustered_points, selectivity):
        index = any_factory().build(clustered_points)
        for lo, hi in range_queries_nd(clustered_points, 4, selectivity, seed=5):
            got = sorted(v for _, v in index.range_query(lo, hi))
            assert got == brute_force_range_nd(clustered_points, lo, hi)

    def test_skewed_data(self, any_factory):
        pts = load_nd("skew", 2000, seed=7)
        index = any_factory().build(pts)
        for lo, hi in range_queries_nd(pts, 4, 0.01, seed=8):
            got = sorted(v for _, v in index.range_query(lo, hi))
            assert got == brute_force_range_nd(pts, lo, hi)

    def test_degenerate_box_is_point(self, any_factory, uniform_points):
        index = any_factory().build(uniform_points)
        p = uniform_points[7]
        result = index.range_query(p, p)
        assert [v for _, v in result] == [7]

    def test_inverted_box_empty(self, any_factory, uniform_points):
        index = any_factory().build(uniform_points)
        assert index.range_query([10.0, 10.0], [5.0, 5.0]) == []

    def test_box_covering_everything(self, any_factory, uniform_points):
        index = any_factory().build(uniform_points)
        lo = uniform_points.min(axis=0)
        hi = uniform_points.max(axis=0)
        assert len(index.range_query(lo, hi)) == uniform_points.shape[0]

    def test_returned_points_carry_coordinates(self, any_factory, uniform_points):
        index = any_factory().build(uniform_points)
        lo = uniform_points.min(axis=0)
        hi = uniform_points.max(axis=0)
        for p, v in index.range_query(lo, hi)[:20]:
            assert np.array_equal(np.asarray(p), uniform_points[v])


class TestKNN:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_brute_force(self, knn_factory, clustered_points, k):
        index = knn_factory().build(clustered_points)
        rng = np.random.default_rng(11)
        for _ in range(3):
            q = clustered_points[rng.integers(0, clustered_points.shape[0])] + 0.25
            got = {v for _, v in index.knn_query(q, k)}
            assert got == brute_force_knn(clustered_points, q, k)

    def test_results_ordered_by_distance(self, knn_factory, clustered_points):
        index = knn_factory().build(clustered_points)
        q = clustered_points.mean(axis=0)
        result = index.knn_query(q, 10)
        dists = [float(np.linalg.norm(np.asarray(p) - q)) for p, _ in result]
        assert dists == sorted(dists)


class TestMutableContract:
    def test_insert_then_query(self, mutable_factory, clustered_points):
        index = mutable_factory().build(clustered_points)
        rng = np.random.default_rng(13)
        span = clustered_points.max(axis=0) - clustered_points.min(axis=0)
        new = clustered_points.min(axis=0) + rng.uniform(0, 1, (300, 2)) * span
        for i, p in enumerate(new):
            index.insert(p, ("n", i))
        for i, p in enumerate(new[::11]):
            assert index.point_query(p) == ("n", i * 11)

    def test_inserts_preserve_existing(self, mutable_factory, clustered_points):
        index = mutable_factory().build(clustered_points)
        index.insert([-77.0, -77.0], "x")
        for i in range(0, clustered_points.shape[0], 211):
            assert index.point_query(clustered_points[i]) == i

    def test_delete(self, mutable_factory, clustered_points):
        index = mutable_factory().build(clustered_points)
        for i in range(0, 100, 7):
            assert index.delete(clustered_points[i])
        for i in range(0, 100, 7):
            assert index.point_query(clustered_points[i]) is None
        assert not index.delete([1e9, 1e9])

    def test_range_after_churn(self, mutable_factory):
        pts = load_nd("uniform", 1000, seed=17)
        index = mutable_factory().build(pts)
        rng = np.random.default_rng(18)
        extra = rng.uniform(pts.min(), pts.max(), (300, 2))
        for i, p in enumerate(extra):
            index.insert(p, ("e", i))
        for i in range(0, 200, 9):
            index.delete(pts[i])
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        got = index.range_query(lo, hi)
        live = {tuple(p) for p in pts} - {tuple(pts[i]) for i in range(0, 200, 9)}
        live |= {tuple(p) for p in extra if np.all(p >= lo) and np.all(p <= hi)}
        assert {tuple(p) for p, _ in got} == live


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestInfiniteCoordinates:
    """+-inf is a coordinate like any other: a point holding one is not
    stored, and a box with infinite corners is an unbounded box."""

    INF = float("inf")

    @pytest.fixture(params=ALL, ids=ALL)
    def built(self, request, uniform_points):
        return MULTI_DIM_FACTORIES[request.param]().build(uniform_points), uniform_points

    def test_point_with_an_infinite_coordinate_is_absent(self, built):
        index, points = built
        x, y = points[7]
        for q in ([self.INF, y], [x, -self.INF], [-self.INF, self.INF], [self.INF, self.INF]):
            assert index.point_query(q) is None

    def test_knn_of_a_point_with_an_infinite_coordinate_is_empty(self, built):
        """No stored point is at a finite distance from it."""
        index, points = built
        x, y = points[7]
        for q in ([self.INF, y], [x, -self.INF], [-self.INF, self.INF]):
            assert index.knn_query(q, 3) == []

    def test_box_with_infinite_corners_matches_brute_force(self, built):
        index, points = built
        mid = np.median(points, axis=0)
        inf = self.INF
        boxes = [([-inf, -inf], [inf, inf]), ([-inf, mid[1]], [mid[0], inf]),
                 ([mid[0], -inf], [inf, mid[1]]), ([-inf, -inf], mid), (mid, [inf, inf]),
                 ([inf, inf], [inf, inf]), ([-inf, -inf], [-inf, -inf])]
        for lo, hi in boxes:
            got = sorted(v for _, v in index.range_query(lo, hi))
            assert got == brute_force_range_nd(points, lo, hi), (lo, hi)


class TestSpanOverflow:
    """Finite points whose span in one dimension overflows float64 are
    refused at build, naming the dimension."""

    def test_build_refuses_an_overflowing_span(self, any_factory):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(0.0, 1.0, 200),
                               rng.uniform(-1.0, 1.0, 200) * 1.7e308])
        with pytest.raises(ValueError, match="dimension-1 .* overflows"):
            any_factory().build(pts)
