"""The Recursive Model Index (RMI) — Kraska et al., 2018.

The first learned index.  A two-stage model hierarchy learns the CDF of
the keys: the *root* model routes a key to one of ``num_models`` leaf
models, each leaf predicts the key's position in the sorted array, and a
per-leaf error bound drives a bounded binary search for correction.

The root model is configurable (``'linear'``, ``'quadratic'``, or
``'nn'`` for a small MLP), matching the original paper's exploration of
root complexity; leaves are always linear, the configuration that every
follow-up benchmark found dominant.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.interfaces import OneDimIndex, as_object_array
from repro.models.linear import LinearModel
from repro.models.nn import TinyMLP
from repro.models.polynomial import PolynomialModel
from repro.onedim._search import (
    bounded_binary_search,
    exponential_search,
    scan_range,
    windowed_lower_bound,
)

__all__ = ["RMIIndex"]


def _leaf_of(scaled: float, num_models: int) -> int:
    """The leaf a root prediction scaled to ``[0, num_models)`` routes to,
    clamped into range; NaN takes the last leaf."""
    return int(max(scaled, 0)) if scaled < num_models - 1 else num_models - 1


class RMIIndex(OneDimIndex):
    """Two-stage RMI over a sorted array.

    Args:
        num_models: number of second-stage (leaf) linear models.
        root: root model type — ``'linear'``, ``'quadratic'``, or ``'nn'``.

    The index is immutable (pure / immutable branch of the taxonomy).
    """

    name = "rmi"
    #: Rows from which ``lookup_batch`` runs the kernel: at 10⁵ keys a
    #: kernel call costs ~32 µs and a scalar lookup ~3.5 µs (E17's
    #: crossover arm; DESIGN.md "Small batches").
    batch_crossover = 12

    def __init__(self, num_models: int = 128, root: str = "linear") -> None:
        super().__init__()
        if num_models < 1:
            raise ValueError("num_models must be >= 1")
        if root not in ("linear", "quadratic", "nn"):
            raise ValueError("root must be 'linear', 'quadratic', or 'nn'")
        self.num_models = num_models
        self.root_kind = root
        self._keys = np.empty(0)
        self._values: list[object] = []
        self._root_model: object | None = None
        self._leaves: list[LinearModel] = []
        self._leaf_errors: list[int] = []
        # Flat per-leaf parameter arrays + an object copy of the values,
        # prepared at build time for the vectorized batch-lookup path.
        self._leaf_slopes = np.empty(0)
        self._leaf_intercepts = np.empty(0)
        self._leaf_error_arr = np.empty(0, dtype=np.int64)
        self._values_arr = np.empty(0, dtype=object)

    # -- construction ----------------------------------------------------
    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "RMIIndex":
        self._keys, self._values = self._prepare(keys, values)
        n = self._keys.size
        self._built = True
        if n == 0:
            self._root_model = LinearModel()
            self._leaves = [LinearModel()]
            self._leaf_errors = [0]
            self._finalize_batch_arrays()
            return self

        positions = np.arange(n, dtype=np.float64)
        self._root_model = self._fit_root(self._keys, positions)

        # Route every key through the root to its leaf model.
        root_pred = self._root_predict_array(self._keys)
        leaf_ids = np.clip((root_pred / n * self.num_models).astype(int), 0, self.num_models - 1)

        # Each leaf fits on its positions in ascending order, as a
        # ``leaf_ids == m`` mask selects them.  A monotone root (the linear
        # default) sends the sorted keys to non-decreasing leaves, so each
        # leaf is a slice; otherwise one stable argsort groups them.
        bounds = np.concatenate(([0], np.cumsum(np.bincount(leaf_ids, minlength=self.num_models))))
        monotone = np.all(leaf_ids[:-1] <= leaf_ids[1:])
        by_leaf = None if monotone else np.argsort(leaf_ids, kind="stable")
        self._leaves = []
        self._leaf_errors = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if lo == hi:
                self._leaves.append(LinearModel())
                self._leaf_errors.append(0)
                continue
            rows = slice(lo, hi) if by_leaf is None else by_leaf[lo:hi]
            xs = self._keys[rows]
            ys = positions[rows]
            leaf = LinearModel.fit(xs, ys)
            preds = np.clip(np.rint(leaf.predict_array(xs)), 0, n - 1)
            err = int(np.max(np.abs(preds - ys)))
            self._leaves.append(leaf)
            self._leaf_errors.append(err)

        self.stats.size_bytes = (
            self._root_size_bytes()
            + sum(leaf.size_bytes for leaf in self._leaves)
            + 8 * len(self._leaf_errors)
        )
        self.stats.extra["max_leaf_error"] = max(self._leaf_errors, default=0)
        self.stats.extra["mean_leaf_error"] = float(np.mean(self._leaf_errors)) if self._leaf_errors else 0.0
        self._finalize_batch_arrays()
        return self

    def _finalize_batch_arrays(self) -> None:
        self._leaf_slopes = np.array([leaf.slope for leaf in self._leaves])
        self._leaf_intercepts = np.array([leaf.intercept for leaf in self._leaves])
        self._leaf_error_arr = np.array(self._leaf_errors, dtype=np.int64)
        self._values_arr = as_object_array(self._values)

    def _fit_root(self, keys: np.ndarray, positions: np.ndarray):
        if self.root_kind == "linear":
            return LinearModel.fit(keys, positions)
        if self.root_kind == "quadratic":
            return PolynomialModel.fit(keys, positions, degree=2)
        model = TinyMLP(hidden=16, epochs=200, learning_rate=0.05)
        # Subsample for training speed on large key sets.
        if keys.size > 20000:
            idx = np.linspace(0, keys.size - 1, 20000).astype(int)
            model.fit(keys[idx], positions[idx])
        else:
            model.fit(keys, positions)
        return model

    def _root_size_bytes(self) -> int:
        model = self._root_model
        if isinstance(model, (LinearModel, PolynomialModel)):
            return model.size_bytes
        if isinstance(model, TinyMLP):
            return model.size_bytes
        return 0

    def _root_predict_array(self, keys: np.ndarray) -> np.ndarray:
        model = self._root_model
        if isinstance(model, TinyMLP):
            return np.asarray(model.predict(keys))
        return model.predict_array(keys)

    def _root_predict(self, key: float) -> float:
        model = self._root_model
        if isinstance(model, TinyMLP):
            return float(np.asarray(model.predict(np.array([key])))[0])
        return model.predict(key)

    # -- queries ----------------------------------------------------------
    def _locate(self, key: float) -> int:
        """Lower-bound position of ``key`` via root -> leaf -> correction."""
        n = self._keys.size
        self.stats.model_predictions += 1
        leaf_id = _leaf_of(self._root_predict(key) / n * self.num_models, self.num_models)
        leaf = self._leaves[leaf_id]
        self.stats.model_predictions += 1
        self.stats.nodes_visited += 2
        raw = leaf.predict(key)
        if not math.isfinite(raw):
            # +-inf probes (open-ended scans): saturate the prediction.
            raw = 0 if raw < 0 else n - 1
        predicted = min(max(round(raw), 0), n - 1)
        error = self._leaf_errors[leaf_id]
        pos = bounded_binary_search(self._keys, key, predicted, error, self.stats)
        # Guard against routing misses near leaf boundaries: a key may be
        # routed to a different leaf than its neighbours were at build
        # time, so fall back to widening if the bound was violated.
        if (pos < n and self._keys[pos] < key) or (pos > 0 and self._keys[pos - 1] >= key):
            pos = exponential_search(self._keys, key, predicted, self.stats)
        return pos

    def lookup(self, key: float) -> object | None:
        self._require_built()
        if self._keys.size == 0:
            return None
        key = float(key)
        pos = self._locate(key)
        if pos < self._keys.size and self._keys[pos] == key:
            self.stats.keys_scanned += 1
            return self._values[pos]
        return None

    def _lookup_batch(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized batch lookup: one numpy pass over the whole batch.

        Mirrors the scalar path arithmetic exactly — root prediction,
        leaf routing, per-leaf bounded window, and the leaf-boundary
        fallback (replaced by the global insertion point, which is what
        the scalar ``exponential_search`` fallback converges to) — so a
        batch equals a loop of :meth:`lookup` calls element-wise.
        """
        m = qs.size
        out = np.full(m, None, dtype=object)
        n = self._keys.size
        if n == 0:
            return out
        # fmin, not clip: a NaN query routes to the last leaf and the end
        # of the keys, as in the scalar path.
        root_pred = self._root_predict_array(qs)
        leaf_ids = np.fmin(np.maximum(root_pred / n * self.num_models, 0),
                           self.num_models - 1).astype(np.int64)
        self.stats.model_predictions += 2 * m
        self.stats.nodes_visited += 2 * m
        with np.errstate(invalid="ignore"):  # a flat leaf times ±inf is NaN: fmin sends it last
            raw = np.rint(self._leaf_slopes[leaf_ids] * qs + self._leaf_intercepts[leaf_ids])
        predicted = np.fmin(np.maximum(raw, 0), n - 1).astype(np.int64)
        errors = self._leaf_error_arr[leaf_ids]
        lo = np.maximum(predicted - errors, 0)
        hi = np.minimum(predicted + errors + 1, n)
        pos = windowed_lower_bound(self._keys, qs, lo, hi)
        self.stats.corrections += int((hi - lo).sum())
        # Leaf-boundary routing misses: same violation test as _locate,
        # resolved to the exact global lower bound of the violating rows.
        at = self._keys.take(pos, mode="clip")
        violated = np.nonzero(
            ((pos < n) & (at < qs))
            | ((pos > 0) & (self._keys.take(pos - 1, mode="clip") >= qs))
        )[0]
        if violated.size:
            pos[violated] = np.searchsorted(self._keys, qs[violated], side="left")
            at[violated] = self._keys.take(pos[violated], mode="clip")
        hit = (pos < n) & (at == qs)
        hit_idx = np.nonzero(hit)[0]
        self.stats.keys_scanned += int(hit_idx.size)
        out[hit_idx] = self._values_arr[pos[hit_idx]]
        return out

    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        self._require_built()
        if not low <= high or self._keys.size == 0:
            return []
        start = self._locate(float(low))
        return scan_range(self._keys, self._values, start, high, self.stats)

    @property
    def leaf_errors(self) -> list[int]:
        """Per-leaf max error bounds (for size/error trade-off studies)."""
        return list(self._leaf_errors)

    def __len__(self) -> int:
        return int(self._keys.size)
