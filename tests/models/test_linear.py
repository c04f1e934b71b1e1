"""Tests for the linear models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.linear import EndpointLinearModel, LinearModel, fit_linear


class TestFitLinear:
    def test_exact_line_recovered(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        slope, intercept = fit_linear(xs, 2 * xs + 5)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(5.0)

    def test_empty_input(self):
        assert fit_linear(np.array([]), np.array([])) == (0.0, 0.0)

    def test_single_point_is_constant(self):
        slope, intercept = fit_linear(np.array([3.0]), np.array([7.0]))
        assert slope == 0.0
        assert intercept == 7.0

    def test_duplicate_xs_fall_back_to_mean(self):
        slope, intercept = fit_linear(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert slope == 0.0
        assert intercept == pytest.approx(2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("xs", [[0.0, 5e-324, 1e-323], [0.0, 1e-310, 2e-310]])
    def test_subnormal_gaps_fall_back_to_constant(self, xs):
        # Distinct keys whose squared deviations underflow to a zero
        # denominator: a constant model, without dividing by zero.
        slope, intercept = fit_linear(np.array(xs), np.array([0.0, 1.0, 2.0]))
        assert np.isfinite(slope) and np.isfinite(intercept)

    def test_sorted_positions_give_nonnegative_slope(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0, 1e9, 500))
        slope, _ = fit_linear(xs, np.arange(500, dtype=np.float64))
        assert slope >= 0


class TestLinearModel:
    def test_fit_records_max_error(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([0.0, 1.0, 2.0, 10.0])  # outlier
        model = LinearModel.fit(xs, ys)
        assert model.max_error > 0
        preds = model.predict_array(xs)
        assert model.max_error == pytest.approx(float(np.max(np.abs(preds - ys))))

    def test_predict_matches_predict_array(self):
        model = LinearModel(slope=1.5, intercept=-2.0)
        xs = np.array([0.0, 4.0, -3.0])
        assert [model.predict(x) for x in xs] == list(model.predict_array(xs))

    def test_predict_clamped(self):
        model = LinearModel(slope=1.0, intercept=0.0)
        assert model.predict_clamped(-10.0, 0, 99) == 0
        assert model.predict_clamped(1000.0, 0, 99) == 99
        assert model.predict_clamped(50.4, 0, 99) == 50

    def test_size_is_constant(self):
        assert LinearModel().size_bytes == 24

    @settings(max_examples=50, deadline=None)
    @given(
        slope=st.floats(min_value=-100, max_value=100, allow_nan=False),
        intercept=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_property_exact_fit_recovers_line(self, slope, intercept):
        xs = np.linspace(0, 10, 20)
        model = LinearModel.fit(xs, slope * xs + intercept)
        assert model.max_error <= 1e-6 * (1 + abs(slope) * 10 + abs(intercept))


class TestEndpointLinearModel:
    def test_passes_through_endpoints(self):
        xs = np.array([1.0, 2.0, 5.0])
        ys = np.array([10.0, 11.0, 40.0])
        model = EndpointLinearModel.fit(xs, ys)
        assert model.predict(1.0) == pytest.approx(10.0)
        assert model.predict(5.0) == pytest.approx(40.0)

    def test_empty_and_single(self):
        assert EndpointLinearModel.fit(np.array([]), np.array([])).slope == 0.0
        model = EndpointLinearModel.fit(np.array([3.0]), np.array([9.0]))
        assert model.predict(3.0) == pytest.approx(9.0)

    def test_duplicate_endpoints_constant(self):
        model = EndpointLinearModel.fit(np.array([2.0, 2.0]), np.array([1.0, 5.0]))
        assert model.slope == 0.0
