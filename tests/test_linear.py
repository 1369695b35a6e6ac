"""Tests for the OLS benchmark fitting layer.

The oracle here deliberately solves the normal equations directly
(solve(A'A, A'y)) so the closed-form centred-sums fit is checked against
an independent derivation rather than against itself.
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minutecast import linear, marketdata, scaling
from minutecast.errors import ConfigError, FitError, ShapeError


def normal_equations_fit(X, y):
    """Textbook normal-equations solve; intentionally not the library path."""
    A = np.hstack([np.ones((X.shape[0], 1)), X])
    theta = np.linalg.solve(A.T @ A, A.T @ y)
    return theta[0], theta[1:]


class TestOlsFit:
    def test_exact_linear_data(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        fit = linear.ols_fit(X, y)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert fit.coef[0] == pytest.approx(2.0, abs=1e-10)
        # residuals of exact linear data vanish to solver precision
        fitted = [linear.ols_predict(fit, row) for row in X]
        assert np.max(np.abs(y - np.array(fitted))) < 1e-10

    def test_constant_response(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 1))
        y = np.full(25, 3.25)
        fit = linear.ols_fit(X, y)
        assert fit.intercept == pytest.approx(3.25, abs=1e-9)
        assert fit.coef[0] == pytest.approx(0.0, abs=1e-9)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            X = rng.normal(size=(30, 1))
            y = rng.normal(size=30)
            fit = linear.ols_fit(X, y)
            a0, b0 = normal_equations_fit(X, y)
            assert abs(fit.intercept - a0) < 1e-8
            assert abs(fit.coef[0] - b0[0]) < 1e-8

    def test_residual_variance_hand_case(self):
        # alpha=0.5, beta=0.6, SSR=0.2, dof=2 -> 0.1 (worked by hand)
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 2.0, 2.0, 3.0])
        fit = linear.ols_fit(X, y)
        assert fit.intercept == pytest.approx(0.5, abs=1e-10)
        assert fit.coef[0] == pytest.approx(0.6, abs=1e-10)
        resid = y - linear.ols_predict(fit, X)
        assert resid @ resid / 2 == pytest.approx(0.1, abs=1e-10)

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 1))
        y = 0.3 + 1.5 * X[:, 0] + rng.normal(size=60)
        fit = linear.ols_fit(X, y)
        fitted = np.array([linear.ols_predict(fit, row) for row in X])
        resid = y - fitted
        assert abs(resid.sum()) / 60 < 1e-8
        assert abs(X[:, 0] @ resid) / 60 < 1e-8

    def test_passes_through_means(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 1))
        y = rng.normal(size=30)
        fit = linear.ols_fit(X, y)
        at_mean = linear.ols_predict(fit, X.mean(axis=0))
        assert at_mean == pytest.approx(y.mean(), abs=1e-10)

    def test_constant_regressor_is_singular(self):
        # 30 x 0.013 does not average back to exactly 0.013
        X = np.full((30, 1), 0.013)
        y = np.random.default_rng(1).normal(size=30)
        fit = linear.ols_fit(X, y)
        assert np.isnan(fit.coef[0])
        assert np.isnan(fit.intercept)
        assert np.isnan(linear.ols_predict(fit, np.array([0.013])))

    def test_stack_fits_like_separate_windows(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(7, 30, 1))
        y = rng.normal(size=(7, 30))
        x_test = rng.uniform(size=(7, 1))
        fit = linear.ols_fit(X, y)
        forecasts = linear.ols_predict(fit, x_test)
        assert fit.intercept.shape == forecasts.shape == (7,)
        assert fit.coef.shape == (7, 1)
        for w in range(7):
            one = linear.ols_fit(X[w], y[w])
            assert one.intercept.tobytes() == fit.intercept[w].tobytes()
            assert one.coef.tobytes() == fit.coef[w].tobytes()
            assert linear.ols_predict(one, x_test[w]).tobytes() == forecasts[w].tobytes()

    def test_constant_window_is_nan_among_siblings(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(5, 22, 1))
        y = rng.normal(size=(5, 22))
        alone = linear.ols_predict(linear.ols_fit(X, y), X[:, -1])
        X[2] = 0.0  # a degenerate column, as min-max scaling leaves it
        forecasts = linear.ols_predict(linear.ols_fit(X, y), X[:, -1])
        assert np.isnan(forecasts[2])
        keep = [0, 1, 3, 4]
        assert forecasts[keep].tobytes() == alone[keep].tobytes()

    @given(arrays(float, st.integers(2, 30),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)).filter(
                      lambda column: column.min() < column.max()))
    @settings(max_examples=100, deadline=None)
    def test_scaled_column_has_centred_squares_of_at_least_half(self, column):
        x = scaling.transform(scaling.fit_minmax(column[:, None]), column[:, None])[:, 0]
        dx = x - x.mean()
        assert (dx * dx).sum() >= 0.5

    def test_too_few_observations(self):
        X = np.array([[1.0], [2.0]])
        with pytest.raises(FitError):
            linear.ols_fit(X, np.array([1.0, 2.0]))

    def test_non_finite_rejected(self):
        X = np.array([[1.0], [np.nan], [3.0], [4.0]])
        with pytest.raises(FitError):
            linear.ols_fit(X, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            linear.ols_fit(np.ones(5), np.ones(5))
        with pytest.raises(ShapeError):
            linear.ols_fit(np.ones((5, 1)), np.ones((5, 1)))
        with pytest.raises(ShapeError):
            linear.ols_fit(np.ones((5, 1)), np.ones(4))
        with pytest.raises(ShapeError):
            linear.ols_fit(np.ones((5, 2)), np.ones(5))

    @given(scale=st.floats(min_value=-8.0, max_value=8.0).filter(lambda a: abs(a) > 0.05))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, scale):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(30, 1))
        y = 1.0 + 2.0 * X[:, 0] + rng.normal(size=30) * 0.1
        fit = linear.ols_fit(X, y)
        fit_scaled = linear.ols_fit(scale * X, y)
        assert fit_scaled.coef[0] == pytest.approx(fit.coef[0] / scale, abs=1e-8)
        for row, row_s in zip(X, scale * X):
            assert linear.ols_predict(fit_scaled, row_s) == pytest.approx(
                linear.ols_predict(fit, row), abs=1e-8
            )


class TestOlsPredict:
    def test_direct_affine_evaluation(self):
        fit = linear.OlsFit(intercept=0.0, coef=np.array([2.0]))
        assert linear.ols_predict(fit, np.array([5.0])) == pytest.approx(10.0)

    def test_zero_slope_returns_intercept(self):
        fit = linear.OlsFit(intercept=1.5, coef=np.array([0.0]))
        for v in (-3.0, 0.0, 7.7):
            assert linear.ols_predict(fit, np.array([v])) == pytest.approx(1.5)

    def test_length_mismatch(self):
        fit = linear.OlsFit(intercept=0.0, coef=np.array([1.0]))
        with pytest.raises(ShapeError):
            linear.ols_predict(fit, np.array([1.0, 2.0]))


def benchmark_design(rows, which):
    """(X, y) for one benchmark: its lagged predictor column and the r5 target."""
    column = linear.Benchmark.coerce(which).feature_name
    return rows[column][:, None].astype(float), rows["r5"].astype(float)


def _feature_rows_for_tests():
    params = marketdata.SynthParams(n_days=1, seed=31)
    day = marketdata.generate_synthetic_day(params, dt.date(2023, 3, 6))
    return marketdata.build_feature_rows(day)


class TestBenchmarkDesign:
    def test_vix_selects_vix_lag_column(self):
        rows = _feature_rows_for_tests()
        X, y = benchmark_design(rows, linear.Benchmark.VIX)
        assert X.shape == (len(rows), 1)
        np.testing.assert_array_equal(X[:, 0], rows["vix_lag"])
        np.testing.assert_array_equal(y, rows["r5"])

    def test_rv_is_squared_lagged_return(self):
        rows = _feature_rows_for_tests()
        X, _ = benchmark_design(rows, "rv")
        # x * x, not x ** 2: libm pow can drift a final ulp from the IEEE product
        np.testing.assert_allclose(X[:, 0], rows["lag_r5"] * rows["lag_r5"], rtol=0, atol=0)

    def test_all_five_share_the_target(self):
        rows = _feature_rows_for_tests()
        targets = []
        for bench in linear.Benchmark:
            _, y = benchmark_design(rows, bench)
            targets.append(y)
        for y in targets[1:]:
            np.testing.assert_array_equal(y, targets[0])

    def test_column_mapping(self):
        rows = _feature_rows_for_tests()
        expect = {
            "ar1": "lag_r5",
            "rv": "lag_r5_sq",
            "vix": "vix_lag",
            "dvix": "dvix_lag",
            "vrp": "vrp_lag",
        }
        for name, attr in expect.items():
            X, _ = benchmark_design(rows, name)
            np.testing.assert_array_equal(X[:, 0], rows[attr])

    def test_unknown_id_rejected(self):
        rows = _feature_rows_for_tests()
        with pytest.raises(ConfigError):
            benchmark_design(rows, "garch")
        with pytest.raises(ConfigError):
            linear.Benchmark.coerce(3)

    def test_string_coercion_case_insensitive(self):
        assert linear.Benchmark.coerce("VIX") is linear.Benchmark.VIX
        assert linear.Benchmark.coerce("dvix") is linear.Benchmark.DVIX
        assert linear.Benchmark.coerce(linear.Benchmark.AR1) is linear.Benchmark.AR1
