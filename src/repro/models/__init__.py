"""ML model substrate shared by every learned index in the library."""

from repro.models.cdf import EmpiricalCDF, QuantileModel
from repro.models.classifier import LogisticClassifier, featurize_scalar
from repro.models.histogram import EquiDepthHistogram, EquiWidthHistogram
from repro.models.linear import EndpointLinearModel, LinearModel, fit_linear
from repro.models.nn import TinyMLP
from repro.models.pla import Segment, segment_greedy_splits, segment_stream, verify_epsilon
from repro.models.polynomial import PolynomialModel

__all__ = [
    "EmpiricalCDF",
    "QuantileModel",
    "LogisticClassifier",
    "featurize_scalar",
    "EquiDepthHistogram",
    "EquiWidthHistogram",
    "EndpointLinearModel",
    "LinearModel",
    "fit_linear",
    "TinyMLP",
    "Segment",
    "segment_greedy_splits",
    "segment_stream",
    "verify_epsilon",
    "PolynomialModel",
]
