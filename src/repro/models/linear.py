"""Linear models: the workhorse of learned indexes.

Almost every learned index in the survey uses linear models at its leaves
because they are cheap to train, tiny to store, and fast to evaluate.  Two
variants are provided:

* :class:`LinearModel` — least-squares fit (used by RMI, ALEX, Flood, ...).
* :class:`EndpointLinearModel` — line through the first and last point
  (used where single-pass construction matters).

Both track the maximum absolute prediction error over their training data
so indexes can bound their last-mile search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LinearModel", "EndpointLinearModel", "fit_linear"]


def fit_linear(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept for ``ys ~ slope * xs + intercept``.

    Degenerate inputs (fewer than two distinct x values) fall back to a
    constant model at the mean y, which is the correct CDF model for a run
    of duplicate keys.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size == 0:
        return 0.0, 0.0
    if xs.size == 1 or float(xs.max()) == float(xs.min()):
        return 0.0, float(ys.mean())
    x_mean = float(xs.mean())
    y_mean = float(ys.mean())
    denom = float(np.sum((xs - x_mean) ** 2))
    slope = float(np.sum((xs - x_mean) * (ys - y_mean))) / denom if denom > 0.0 else math.inf
    intercept = y_mean - slope * x_mean
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        # Degenerate spacing (distinct keys only subnormal gaps apart
        # square to a zero denominator, or overflow the slope): fall back
        # to the constant model.
        return 0.0, y_mean
    return slope, intercept


@dataclass
class LinearModel:
    """A least-squares linear model ``y = slope * x + intercept``."""

    slope: float = 0.0
    intercept: float = 0.0
    max_error: float = 0.0

    @classmethod
    def fit(cls, xs: np.ndarray, ys: np.ndarray) -> "LinearModel":
        """Fit by least squares and record the max absolute error."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        slope, intercept = fit_linear(xs, ys)
        model = cls(slope=slope, intercept=intercept)
        if xs.size:
            model.max_error = float(np.max(np.abs(model.predict_array(xs) - ys)))
        return model

    def predict(self, x: float) -> float:
        """Predict a single position."""
        return self.slope * x + self.intercept

    def predict_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised prediction."""
        return self.slope * np.asarray(xs, dtype=np.float64) + self.intercept

    def predict_clamped(self, x: float, lo: int, hi: int) -> int:
        """Predict and clamp to the integer interval [lo, hi]."""
        pos = int(round(self.predict(x)))
        if pos < lo:
            return lo
        if pos > hi:
            return hi
        return pos

    @property
    def size_bytes(self) -> int:
        """Storage: two float64 parameters plus the error bound."""
        return 24


@dataclass
class EndpointLinearModel:
    """Line through the first and last training point (single pass)."""

    slope: float = 0.0
    intercept: float = 0.0
    max_error: float = 0.0

    @classmethod
    def fit(cls, xs: np.ndarray, ys: np.ndarray) -> "EndpointLinearModel":
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.size == 0:
            return cls()
        if xs.size == 1 or float(xs[-1]) == float(xs[0]):
            return cls(slope=0.0, intercept=float(ys.mean()))
        slope = float((ys[-1] - ys[0]) / (xs[-1] - xs[0]))
        intercept = float(ys[0] - slope * xs[0])
        model = cls(slope=slope, intercept=intercept)
        model.max_error = float(np.max(np.abs(slope * xs + intercept - ys)))
        return model

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    def predict_array(self, xs: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(xs, dtype=np.float64) + self.intercept

    @property
    def size_bytes(self) -> int:
        return 24
