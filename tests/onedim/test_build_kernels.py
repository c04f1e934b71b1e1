"""Column-built models equal the per-key loops they replaced.

RMI fits each leaf on its slice of a stable ``argsort`` of the leaf ids
instead of a ``leaf_ids == m`` mask; RadixSpline measures its true error
with one vectorised ``LearnedColumn.predict_batch`` instead of a scalar
``predict`` per key.  Both must give the same parameters, element for
element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_1d
from repro.models.linear import LinearModel
from repro.models.pla import LearnedColumn, spline_knots
from repro.onedim.radix_spline import RadixSplineIndex
from repro.onedim.rmi import RMIIndex

E2_DATASETS = ("uniform", "books", "osm")


def mask_loop_leaves(index: RMIIndex) -> tuple[list[float], list[float], list[int]]:
    """The leaf fits of the ``leaf_ids == m`` loop, over a built index's root."""
    keys = index._keys
    n = keys.size
    positions = np.arange(n, dtype=np.float64)
    root_pred = index._root_predict_array(keys)
    leaf_ids = np.clip((root_pred / n * index.num_models).astype(int), 0, index.num_models - 1)
    slopes, intercepts, errors = [], [], []
    for m in range(index.num_models):
        mask = leaf_ids == m
        if not np.any(mask):
            leaf, err = LinearModel(), 0
        else:
            xs, ys = keys[mask], positions[mask]
            leaf = LinearModel.fit(xs, ys)
            preds = np.clip(np.rint(leaf.predict_array(xs)), 0, n - 1)
            err = int(np.max(np.abs(preds - ys)))
        slopes.append(leaf.slope)
        intercepts.append(leaf.intercept)
        errors.append(err)
    return slopes, intercepts, errors


def assert_leaves_match(index: RMIIndex) -> None:
    slopes, intercepts, errors = mask_loop_leaves(index)
    assert repr(index._leaf_slopes.tolist()) == repr(slopes)
    assert repr(index._leaf_intercepts.tolist()) == repr(intercepts)
    assert index._leaf_error_arr.tolist() == errors


class TestRMILeafSlices:
    @pytest.mark.parametrize("root", ["linear", "quadratic", "nn"])
    @pytest.mark.parametrize("dataset", E2_DATASETS)
    def test_leaves_equal_mask_loop(self, root, dataset):
        keys = load_1d(dataset, 5000, seed=1)
        assert_leaves_match(RMIIndex(num_models=64, root=root).build(keys))

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.integers(0, 500), min_size=1, max_size=300),
           root=st.sampled_from(["linear", "quadratic"]),
           num_models=st.integers(1, 40))
    def test_property_leaves_equal_mask_loop(self, keys, root, num_models):
        index = RMIIndex(num_models=num_models, root=root).build(np.array(keys, dtype=np.float64))
        assert_leaves_match(index)


def scalar_predictions(col: LearnedColumn, qs: np.ndarray) -> list[float]:
    """The column's clamped prediction per query, one scalar call at a time."""
    out = []
    for q in qs.tolist():
        seg = col.route(q)
        _, _, _, first, end = col._rows[seg]
        out.append(float(min(max(col.predict(seg, q), first), end)))
    return out


class TestSplineErrorPass:
    @pytest.mark.parametrize("dataset", E2_DATASETS)
    @pytest.mark.parametrize("max_error", [4, 32])
    def test_true_error_equals_scalar_pass(self, dataset, max_error):
        keys = load_1d(dataset, 20000, seed=1)
        index = RadixSplineIndex(max_error=max_error).build(keys)
        preds = scalar_predictions(index._column, index._keys)
        want = int(np.ceil(np.max(np.abs(np.array(preds) - np.arange(index._keys.size)))))
        assert index._column.epsilon == want
        assert index.stats.extra["true_error"] == want

    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(st.integers(-50, 50), min_size=1, max_size=200),
           queries=st.lists(st.floats(-60, 60, allow_nan=False), max_size=50),
           max_error=st.integers(1, 8))
    def test_predict_batch_equals_predict(self, keys, queries, max_error):
        keys = np.sort(np.array(keys, dtype=np.float64))
        col = LearnedColumn.through(keys, *spline_knots(keys, float(max_error)))
        qs = np.concatenate([keys, np.array(queries, dtype=np.float64), [-np.inf, np.inf]])
        got = col.predict_batch(col.route_batch(qs), qs)
        assert repr(got.tolist()) == repr(scalar_predictions(col, qs))
