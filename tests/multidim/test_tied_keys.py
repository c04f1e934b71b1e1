"""Stored points are found when keys tie: learned-KD and ZM against brute force.

A lattice shares each coordinate value among many points, and a ZM index
with few ``bits`` puts many points in one cell, so both index long runs
of equal keys.  A segment anchored inside such a run predicts a position
past the run's start; routing a key to the last segment anchored strictly
below it keeps the run's start inside the error window.
"""

import numpy as np
import pytest

from repro.data import load_nd
from repro.multidim.learned_kd import LearnedKDIndex
from repro.multidim.zm_index import ZMIndex
from tests.conftest import brute_force_range_nd


def _integer_grid(n: int, side: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(0, side, (n, 2)).astype(np.float64), axis=0)


DATASETS = {
    "lattice": lambda: load_nd("lattice", n=4000, dims=2, seed=1),
    "integer-grid": lambda: _integer_grid(3000, 80, seed=2),
}

FACTORIES = {
    "learned-kd": lambda: LearnedKDIndex(epsilon=4),
    "zm-bits2": lambda: ZMIndex(bits=2, epsilon=4),
    "zm-bits4": lambda: ZMIndex(bits=4, epsilon=4),
    "zm-default": lambda: ZMIndex(),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def points(request) -> np.ndarray:
    return DATASETS[request.param]()


@pytest.fixture(params=sorted(FACTORIES))
def index(request, points):
    return FACTORIES[request.param]().build(points)


class TestTiedKeys:
    def test_every_point_found(self, index, points):
        missed = [i for i, p in enumerate(points) if index.point_query(p) != i]
        assert missed == []

    def test_every_point_found_in_batch(self, index, points):
        assert index.point_query_batch(points).tolist() == list(range(len(points)))

    def test_range_matches_brute_force(self, index, points):
        rng = np.random.default_rng(3)
        span = points.max(axis=0) - points.min(axis=0)
        for _ in range(40):
            lo = points.min(axis=0) + rng.uniform(0, 1, 2) * span
            hi = lo + rng.uniform(0, 0.3, 2) * span
            got = sorted(v for _, v in index.range_query(lo, hi))
            assert got == brute_force_range_nd(points, lo, hi)

    def test_range_on_a_stored_point(self, index, points):
        for i in range(0, len(points), 97):
            got = [v for _, v in index.range_query(points[i], points[i])]
            assert got == [i]

    def test_knn_matches_brute_force_distances(self, index, points):
        rng = np.random.default_rng(4)
        for q in points[rng.integers(0, len(points), 25)]:
            got = sorted(float(np.linalg.norm(np.asarray(p) - q))
                         for p, _ in index.knn_query(q, 5))
            want = np.sort(np.linalg.norm(points - q, axis=1))[:5]
            np.testing.assert_allclose(got, want)
