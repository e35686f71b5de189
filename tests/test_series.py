"""Core value types: validation, conversions, and the price-to-return map."""

import numpy as np
import pytest

from lave.series import (
    PowerParams,
    ReturnSeries,
    TransformedSeries,
    VolEstimate,
    log_returns,
    sigma_to_theta,
    theta_to_sigma,
)
from lave.transform import power_constants


class TestReturnSeries:
    def test_stores_copy_as_readonly(self):
        raw = np.array([0.1, -0.2, 0.3])
        r = ReturnSeries(raw)
        raw[0] = 99.0
        assert r.values[0] == 0.1
        with pytest.raises(ValueError):
            r.values[0] = 5.0

    def test_len(self):
        assert len(ReturnSeries([1.0, 2.0, 3.0])) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ReturnSeries([])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ReturnSeries([1.0, np.nan])
        with pytest.raises(ValueError):
            ReturnSeries([1.0, np.inf])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            ReturnSeries([[1.0, 2.0]])

    def test_origin_label_kept(self):
        assert ReturnSeries([1.0], origin_label="eurusd").origin_label == "eurusd"


class TestTransformedSeries:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            TransformedSeries([1.0, -0.5], gamma=0.5)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            TransformedSeries([1.0], gamma=0.0)
        with pytest.raises(ValueError):
            TransformedSeries([1.0], gamma=-1.0)

    def test_zero_values_allowed(self):
        y = TransformedSeries([0.0, 1.0], gamma=1.0)
        assert len(y) == 2


class TestPowerParams:
    def test_ratio_consistency_enforced(self):
        with pytest.raises(ValueError):
            PowerParams(gamma=1.0, c_gamma=1.0, d_gamma=1.0, s_gamma=2.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PowerParams(gamma=0.0, c_gamma=1.0, d_gamma=1.0, s_gamma=1.0)
        with pytest.raises(ValueError):
            PowerParams(gamma=1.0, c_gamma=-1.0, d_gamma=1.0, s_gamma=-1.0)
        with pytest.raises(ValueError):
            PowerParams(gamma=1.0, c_gamma=1.0, d_gamma=1.0, s_gamma=1.0, a_gamma=0.0)

    def test_a_gamma_optional(self):
        p = PowerParams(gamma=2.0, c_gamma=1.0, d_gamma=2.0, s_gamma=2.0)
        assert p.a_gamma is None


class TestVolEstimate:
    def test_valid(self):
        v = VolEstimate(theta_hat=1.5, sigma_hat=2.25, interval_len=30, v_tilde=0.1)
        assert v.interval_len == 30

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            VolEstimate(theta_hat=-1.0, sigma_hat=1.0, interval_len=10, v_tilde=0.1)
        with pytest.raises(ValueError):
            VolEstimate(theta_hat=1.0, sigma_hat=np.nan, interval_len=10, v_tilde=0.1)
        with pytest.raises(ValueError):
            VolEstimate(theta_hat=1.0, sigma_hat=1.0, interval_len=0, v_tilde=0.1)
        with pytest.raises(ValueError):
            VolEstimate(theta_hat=1.0, sigma_hat=1.0, interval_len=10, v_tilde=-0.1)


class TestLogReturns:
    def test_log_identity_pair(self):
        r = log_returns([1.0, np.e])
        assert r.values.tolist() == [1.0]

    def test_length_one_shorter(self):
        prices = np.exp(np.linspace(0.0, 1.0, 12))
        assert len(log_returns(prices)) == 11

    def test_matches_diff_of_logs(self):
        prices = np.array([100.0, 101.5, 99.0, 103.2])
        r = log_returns(prices)
        np.testing.assert_allclose(r.values, np.diff(np.log(prices)), rtol=1e-15)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            log_returns([1.0])

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError):
            log_returns([1.0, 0.0])
        with pytest.raises(ValueError):
            log_returns([1.0, -2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            log_returns([1.0, np.nan])

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            log_returns([[1.0, 2.0], [3.0, 4.0]])


class TestScaleConversions:
    def test_round_trip(self):
        params = power_constants(0.5)
        for sigma in (0.3, 1.0, 4.7):
            theta = sigma_to_theta(sigma, params)
            assert theta_to_sigma(theta, params) == pytest.approx(sigma, rel=1e-12)

    def test_gamma_two_is_variance_scale(self, p20):
        # c = 1 at gamma = 2, so theta is exactly sigma squared
        assert sigma_to_theta(3.0, p20) == pytest.approx(9.0, rel=1e-10)
        assert theta_to_sigma(4.0, p20) == pytest.approx(2.0, rel=1e-10)

    def test_array_and_scalar_forms(self):
        params = power_constants(1.0)
        arr = theta_to_sigma(np.array([0.0, params.c_gamma]), params)
        assert isinstance(arr, np.ndarray)
        np.testing.assert_allclose(arr, [0.0, 1.0], atol=1e-15)
        assert isinstance(theta_to_sigma(params.c_gamma, params), float)

    def test_rejects_negative(self):
        params = power_constants(1.0)
        with pytest.raises(ValueError):
            theta_to_sigma(-1.0, params)
        with pytest.raises(ValueError):
            sigma_to_theta(-1.0, params)
