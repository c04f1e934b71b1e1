"""Shared fixtures: small deterministic datasets and index factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.interfaces import _BuiltState
from repro.data import load_1d, load_nd


@pytest.fixture(params=["kernel", "scalar"])
def both_batch_sides(request, monkeypatch) -> str:
    """Run the test once with every batch call (and a dynamic PGM's
    per-level probe) taking the family kernel and once taking the
    scalar loop, whatever its row count and ``batch_crossover``."""
    kernel = request.param == "kernel"
    monkeypatch.setattr(_BuiltState, "_use_kernel", lambda self, rows: kernel)
    return request.param


@pytest.fixture(scope="session")
def uniform_keys() -> np.ndarray:
    return load_1d("uniform", 5000, seed=1)


@pytest.fixture(scope="session")
def lognormal_keys() -> np.ndarray:
    return load_1d("lognormal", 5000, seed=2)


@pytest.fixture(scope="session")
def hard_keys() -> np.ndarray:
    """Heavy-tailed keys (the fb analogue): the adversarial 1-d case."""
    return load_1d("fb", 5000, seed=3)


@pytest.fixture(scope="session")
def uniform_points() -> np.ndarray:
    return load_nd("uniform", 3000, seed=1)


@pytest.fixture(scope="session")
def clustered_points() -> np.ndarray:
    return load_nd("clusters", 3000, seed=2)


def brute_force_range_1d(keys: np.ndarray, low: float, high: float) -> list[int]:
    """Oracle: sorted positions of keys in [low, high]."""
    sk = np.sort(keys)
    return [int(i) for i in np.nonzero((sk >= low) & (sk <= high))[0]]


def brute_force_range_nd(points: np.ndarray, lo, hi) -> list[int]:
    """Oracle: row ids of points inside the closed box [lo, hi]."""
    mask = np.all((points >= np.asarray(lo)) & (points <= np.asarray(hi)), axis=1)
    return [int(i) for i in np.nonzero(mask)[0]]


def brute_force_knn(points: np.ndarray, q, k: int) -> set[int]:
    """Oracle: row ids of the k nearest neighbours of q."""
    d = np.sum((points - np.asarray(q)) ** 2, axis=1)
    return {int(i) for i in np.argsort(d, kind="stable")[:k]}
