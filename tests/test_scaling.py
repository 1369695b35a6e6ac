"""MinMax scaler: fit, transform, inverse, degenerate columns."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minutecast import scaling
from minutecast.errors import FitError, NumericError, ShapeError


def column(values):
    return np.array(values, dtype=float).reshape(-1, 1)


class TestFitMinmax:
    def test_stores_column_extremes(self):
        scaler = scaling.fit_minmax(column([2.0, 4.0, 6.0]))
        assert scaler.mins[0] == 2.0
        assert scaler.maxs[0] == 6.0
        assert not scaler.degenerate

    def test_degenerate_column_flagged(self):
        scaler = scaling.fit_minmax(column([3.0, 3.0, 3.0]))
        assert scaler.degenerate == {0}

    def test_columns_fit_independently(self):
        data = np.array([[2.0, 10.0], [4.0, 30.0], [6.0, 20.0]])
        a = scaling.fit_minmax(data)
        b = scaling.fit_minmax(data[:, ::-1])
        assert list(a.mins) == list(b.mins[::-1])
        assert list(a.maxs) == list(b.maxs[::-1])

    def test_too_few_rows(self):
        with pytest.raises(FitError):
            scaling.fit_minmax(column([1.0]))
        with pytest.raises(FitError):
            scaling.fit_minmax(np.empty((0, 2)))


class TestTransform:
    def test_train_column_hits_unit_interval(self):
        scaler = scaling.fit_minmax(column([2.0, 4.0, 6.0]))
        out = scaling.transform(scaler, column([2.0, 4.0, 6.0]))
        assert out.ravel() == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)

    def test_test_value_interpolates(self):
        scaler = scaling.fit_minmax(column([2.0, 4.0, 6.0]))
        assert scaling.transform(scaler, column([5.0]))[0, 0] == pytest.approx(0.75)

    def test_test_value_may_leave_unit_interval(self):
        scaler = scaling.fit_minmax(column([2.0, 4.0, 6.0]))
        assert scaling.transform(scaler, column([8.0]))[0, 0] == pytest.approx(1.5)

    def test_degenerate_column_maps_to_zero(self):
        scaler = scaling.fit_minmax(column([3.0, 3.0]))
        out = scaling.transform(scaler, column([3.0, 7.0, -1.0]))
        assert list(out.ravel()) == [0.0, 0.0, 0.0]
        assert np.isfinite(out).all()

    def test_column_mismatch(self):
        scaler = scaling.fit_minmax(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        with pytest.raises(ShapeError):
            scaling.transform(scaler, column([1.0]))


class TestInverseTransformTarget:
    def test_round_trip_example(self):
        scaler = scaling.fit_minmax(column([2.0, 4.0, 6.0]))
        scaled = scaling.transform(scaler, column([2.0, 4.0, 6.0]))
        back = [scaling.inverse_transform_target(scaler, v, 0) for v in scaled.ravel()]
        assert back == pytest.approx([2.0, 4.0, 6.0], abs=1e-12)

    def test_direct_evaluation(self):
        scaler = scaling.fit_minmax(column([2.0, 4.0, 6.0]))
        assert scaling.inverse_transform_target(scaler, 0.75, 0) == pytest.approx(5.0)

    def test_degenerate_returns_constant(self):
        scaler = scaling.fit_minmax(column([3.0, 3.0]))
        for v in (-2.0, 0.0, 17.5):
            assert scaling.inverse_transform_target(scaler, v, 0) == 3.0

    def test_unfitted_column(self):
        scaler = scaling.fit_minmax(column([2.0, 4.0]))
        with pytest.raises(ShapeError):
            scaling.inverse_transform_target(scaler, 0.5, 1)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2, max_size=40,
        ),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @example(train=[0.0, 2.2250738585072014e-308], probe=4.0)
    @example(train=[0.0, 1.1e-308], probe=2.0)
    @example(train=[-1e308, 1e308], probe=0.0)
    def test_round_trip_identity(self, train, probe):
        scaler = scaling.fit_minmax(column(train))
        if 0 not in scaler.degenerate:
            # the exact span and scaled value decide whether floats can hold them
            lo, hi = min(train), max(train)
            span = Fraction(hi) - Fraction(lo)
            exact = (Fraction(probe) - Fraction(lo)) / span
            if max(span, abs(exact)) > sys.float_info.max:
                with pytest.raises(NumericError):
                    scaling.transform(scaler, column([probe]))
                return
        scaled = scaling.transform(scaler, column([probe]))[0, 0]
        back = scaling.inverse_transform_target(scaler, scaled, 0)
        if 0 in scaler.degenerate:
            assert back == train[0]
        else:
            assert back == pytest.approx(probe, rel=1e-12, abs=1e-9)

    def test_order_preserved(self):
        rng = np.random.default_rng(42)
        train = rng.normal(size=(30, 1))
        scaler = scaling.fit_minmax(train)
        probes = np.sort(rng.normal(size=50))
        out = scaling.transform(scaler, probes.reshape(-1, 1)).ravel()
        assert (np.diff(out) >= 0).all()

    def test_large_round_trip(self):
        rng = np.random.default_rng(7)
        train = rng.normal(scale=3.0, size=(200, 4))
        scaler = scaling.fit_minmax(train)
        probes = rng.normal(scale=5.0, size=(500, 4))
        scaled = scaling.transform(scaler, probes)
        spans = scaler.maxs - scaler.mins
        back = scaled * spans + scaler.mins
        np.testing.assert_allclose(back, probes, rtol=1e-12, atol=1e-12)
