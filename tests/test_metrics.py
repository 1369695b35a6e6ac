"""Tests for daily scoring, trimming, aggregation, and summary moments.

The percentile oracle re-implements linear interpolation between order
statistics by hand so the trimming convention is pinned independently of
numpy's implementation.
"""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minutecast import metrics, rolling
from minutecast import marketdata as md
from minutecast.errors import ConfigError, ShapeError
from test_rolling import forecasts

DAY = dt.date(2021, 3, 1)


def rec(y, y_hat, y_naive, status="ok", minute=41, model="m", pred="p", day=DAY):
    record = rolling.PredictionRecord(
        day=day, minute=minute, model=model, predictor_set=pred,
        y_true=y, y_hat=y_hat, y_naive=y_naive, status=status,
    )
    return next(iter(forecasts([record])))


def manual_percentile(sorted_values, p):
    """Linear interpolation between order statistics at rank p/100*(n-1)."""
    position = p / 100.0 * (len(sorted_values) - 1)
    below = math.floor(position)
    above = math.ceil(position)
    weight = position - below
    return sorted_values[below] * (1 - weight) + sorted_values[above] * weight


class TestRmseDaily:
    def test_perfect_forecast(self):
        records = [rec(0.5, 0.5, 0.0, minute=m) for m in range(41, 51)]
        assert metrics.rmse_daily(records) == 0.0

    def test_hand_case(self):
        records = [rec(0.0, 3.0, 0.0), rec(0.0, 4.0, 0.0, minute=42)]
        assert metrics.rmse_daily(records) == pytest.approx(math.sqrt(12.5), rel=1e-15)

    def test_skipped_records_excluded(self):
        records = [rec(0.0, 3.0, 0.0), rec(0.0, 4.0, 0.0, minute=42)]
        with_skip = records + [rec(0.0, math.nan, math.nan, status="skipped", minute=43)]
        assert metrics.rmse_daily(with_skip) == metrics.rmse_daily(records)

    def test_fallback_records_included(self):
        records = [rec(0.0, 3.0, 3.0, status="fallback"),
                   rec(0.0, 4.0, 4.0, status="fallback", minute=42)]
        assert metrics.rmse_daily(records) == pytest.approx(math.sqrt(12.5), rel=1e-15)

    def test_empty_is_none(self):
        assert metrics.rmse_daily([]) is None
        only_skip = [rec(0.0, math.nan, math.nan, status="skipped")]
        assert metrics.rmse_daily(only_skip) is None

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, scale):
        base = [rec(0.1, 0.4, 0.0), rec(-0.2, 0.3, 0.0, minute=42)]
        scaled = [rec(r.y_true * scale, r.y_hat * scale, 0.0, minute=r.minute)
                  for r in base]
        assert metrics.rmse_daily(scaled) == pytest.approx(
            scale * metrics.rmse_daily(base), rel=1e-12
        )


class TestR2OosDaily:
    def test_hand_case_zero(self):
        records = [rec(2.0, 3.0, 1.0), rec(4.0, 3.0, 5.0, minute=42)]
        assert metrics.r2_oos_daily(records) == 0.0

    def test_perfect_forecast_is_one(self):
        records = [rec(0.3, 0.3, 0.1), rec(0.7, 0.7, 0.2, minute=42)]
        assert metrics.r2_oos_daily(records) == 1.0

    def test_window_mean_forecast_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        records = [
            rec(float(rng.normal()), 0.0, 0.0, minute=41 + i) for i in range(50)
        ]
        records = [rec(r.y_true, r.y_naive, r.y_naive, minute=r.minute)
                   for r in records]
        assert metrics.r2_oos_daily(records) == 0.0

    def test_zero_denominator_is_none(self):
        records = [rec(0.5, 0.1, 0.5), rec(0.5, 0.2, 0.5, minute=42)]
        assert metrics.r2_oos_daily(records) is None

    def test_empty_is_none(self):
        assert metrics.r2_oos_daily([]) is None

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_one(self, data):
        n = data.draw(st.integers(2, 8))
        vals = st.floats(min_value=-10, max_value=10)
        records = []
        for i in range(n):
            records.append(rec(data.draw(vals), data.draw(vals), data.draw(vals),
                               minute=41 + i))
        r2 = metrics.r2_oos_daily(records)
        if r2 is not None:
            assert r2 <= 1.0

    def test_ordering_consistency_with_rmse(self):
        # same targets and window means, one model strictly closer
        rng = np.random.default_rng(9)
        y = rng.normal(size=20)
        naive = y + rng.normal(size=20) * 0.5
        close = [rec(y[i], y[i] + 0.1, naive[i], minute=41 + i) for i in range(20)]
        far = [rec(y[i], y[i] + 0.4, naive[i], minute=41 + i) for i in range(20)]
        assert metrics.rmse_daily(close) < metrics.rmse_daily(far)
        assert metrics.r2_oos_daily(close) > metrics.r2_oos_daily(far)


class TestPercentiles:
    def test_bounds_on_1_to_100(self):
        lo, hi = metrics.percentile_bounds(range(1, 101))
        assert lo == pytest.approx(1.99, abs=1e-12)
        assert hi == pytest.approx(99.01, abs=1e-12)

    def test_bounds_match_manual_interpolation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = sorted(rng.normal(size=int(rng.integers(3, 40))).tolist())
            lo, hi = metrics.percentile_bounds(values)
            assert lo == pytest.approx(manual_percentile(values, 1.0), abs=1e-12)
            assert hi == pytest.approx(manual_percentile(values, 99.0), abs=1e-12)

    def test_trim_1_to_100_keeps_central_98(self):
        trimmed = metrics.trim_percentiles(range(1, 101))
        assert trimmed == list(range(2, 100))
        assert len(trimmed) == 98

    def test_all_equal_nothing_dropped(self):
        assert metrics.trim_percentiles([7.0] * 10) == [7.0] * 10

    def test_order_preserving_subset(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=200).tolist()
        trimmed = metrics.trim_percentiles(values)
        assert len(trimmed) <= len(values)
        it = iter(values)
        assert all(v in it for v in trimmed)  # subsequence check

    def test_short_input_passes_through_with_warning(self):
        with pytest.warns(UserWarning):
            assert metrics.trim_percentiles([1.0, 2.0]) == [1.0, 2.0]

    def test_fixed_bound_trimming_is_idempotent(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=100).tolist()
        lo, hi = metrics.percentile_bounds(values)
        once = metrics.trim_to_bounds(values, lo, hi)
        assert metrics.trim_to_bounds(once, lo, hi) == once

    def test_bad_band_rejected(self):
        with pytest.raises(ConfigError):
            metrics.percentile_bounds([1.0, 2.0], lower=99.0, upper=1.0)
        with pytest.raises(ConfigError):
            metrics.percentile_bounds([1.0, 2.0], lower=-5.0)
        with pytest.raises(ShapeError):
            metrics.percentile_bounds([])


class TestAggregateStats:
    def test_hand_case(self):
        stats = metrics.aggregate_stats([1.0, 2.0, 3.0])
        assert stats == (2.0, 2.0, 1.0)

    def test_even_count_median_averages_middle_two(self):
        stats = metrics.aggregate_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.median == 2.5

    def test_single_value(self):
        with pytest.warns(UserWarning):
            stats = metrics.aggregate_stats([4.2])
        assert stats == (4.2, 4.2, 0.0)

    def test_constant_values(self):
        assert metrics.aggregate_stats([3.0, 3.0, 3.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            metrics.aggregate_stats([])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_mean_within_range(self, values):
        stats = metrics.aggregate_stats(values)
        assert min(values) - 1e-9 <= stats.mean <= max(values) + 1e-9
        assert stats.std >= 0.0


class TestSummaryStats:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(2024)
        sample = rng.standard_normal(100_000)
        other = rng.standard_normal(100_000)
        stats = metrics.summary_stats(sample, other)
        assert stats.spy.mean == pytest.approx(0.0, abs=0.02)
        assert stats.spy.std == pytest.approx(1.0, abs=0.02)
        assert stats.spy.skewness == pytest.approx(0.0, abs=0.05)
        assert stats.spy.kurtosis == pytest.approx(3.0, abs=0.1)
        assert stats.correlation == pytest.approx(0.0, abs=0.02)

    def test_linear_pair_has_unit_correlation(self):
        x = np.arange(10.0)
        stats = metrics.summary_stats(x, 2.0 * x)
        assert stats.correlation == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_series_flags_moments(self):
        stats = metrics.summary_stats([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
        assert stats.spy.std == 0.0
        assert stats.spy.skewness is None
        assert stats.spy.kurtosis is None
        assert stats.correlation is None

    def test_skewed_sample_is_positive(self):
        rng = np.random.default_rng(7)
        sample = rng.exponential(size=50_000)
        stats = metrics.summary_stats(sample, sample)
        # exponential: skewness 2, kurtosis 9
        assert stats.spy.skewness == pytest.approx(2.0, abs=0.15)
        assert stats.spy.kurtosis == pytest.approx(9.0, abs=0.8)

    def test_validation(self):
        with pytest.raises(ShapeError):
            metrics.summary_stats([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            metrics.summary_stats([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            metrics.summary_stats(np.ones((2, 2)), np.ones((2, 2)))

    def test_reference_values_pinned(self):
        ref = metrics.REFERENCE_DATASET_STATS
        assert ref.spy == metrics.VariableStats(0.0001, 0.099, 0.168, 42.886)
        assert ref.vix == metrics.VariableStats(19.519, 9.404, 2.483, 8.140)
        assert ref.correlation == -0.432


def make_day(day, model, pred, pairs):
    """pairs: (y_true, y_hat, y_naive, status) per minute starting at 41."""
    return [
        rec(y, yh, yn, status=s, minute=41 + i, model=model, pred=pred, day=day)
        for i, (y, yh, yn, s) in enumerate(pairs)
    ]


class TestComputeDailyMetrics:
    def test_grouping_counts_and_values(self):
        d2 = DAY + dt.timedelta(days=1)
        # every model of a day has a row at each minute, with the same y_true and y_naive
        records = (
            make_day(DAY, "a", "x", [(0.0, 3.0, 0.1, "ok"), (0.0, 4.0, 0.1, "ok"),
                                     (0.0, math.nan, 0.1, "skipped")])
            + make_day(DAY, "b", "y", [(0.0, 1.0, 0.1, "ok"),
                                       (0.0, 1.5, 0.1, "fallback"),
                                       (0.0, math.nan, 0.1, "skipped")])
            + make_day(d2, "a", "x", [(0.5, 0.5, 0.5, "ok")])
        )
        rows = metrics.compute_daily_metrics(forecasts(records))
        assert [(r.day, r.model) for r in rows] == [(DAY, "a"), (DAY, "b"), (d2, "a")]
        first = rows[0]
        assert first.rmse == pytest.approx(math.sqrt(12.5), rel=1e-15)
        assert first.n == 2 and first.n_ok == 2
        second = rows[1]
        assert second.n == 2 and second.n_fallback == 1 and second.n_skipped == 1
        third = rows[2]
        assert third.r2_oos is None  # y == y_naive: zero denominator
        assert third.rmse == 0.0

    def test_all_skipped_group_excluded(self):
        records = make_day(DAY, "a", "x", [(0.0, math.nan, math.nan, "skipped")])
        assert metrics.compute_daily_metrics(forecasts(records)) == []

    def test_naive_day_scores_zero_r2(self):
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=21), DAY)
        block = rolling.run_day(md.build_feature_rows(series), [rolling.ModelSpec.naive()])
        rows = metrics.compute_daily_metrics(rolling.Forecasts([block]))
        assert len(rows) == 1
        assert rows[0].n == 340
        assert abs(rows[0].r2_oos) < 1e-12


class TestAggregateReport:
    def daily(self):
        rows = []
        for i in range(10):
            rows.append(metrics.DailyMetrics(
                day=DAY + dt.timedelta(days=i), model="a", predictor_set="x",
                rmse=1.0 + i, r2_oos=(None if i == 0 else 0.1 * i),
                n=10, n_ok=10, n_fallback=0, n_skipped=0,
            ))
        return rows

    def test_rows_and_counts(self):
        report = metrics.aggregate_report(self.daily())
        assert [(r.metric, r.n_days_raw) for r in report] == [("rmse", 10), ("r2_oos", 9)]
        rmse_row = report[0]
        trimmed = metrics.trim_percentiles([1.0 + i for i in range(10)])
        stats = metrics.aggregate_stats(trimmed)
        assert rmse_row.mean == stats.mean
        assert rmse_row.median == stats.median
        assert rmse_row.std == stats.std
        assert rmse_row.n_days_trimmed == len(trimmed)

    def test_undefined_metric_everywhere_yields_empty_row(self):
        rows = [metrics.DailyMetrics(
            day=DAY, model="a", predictor_set="x", rmse=1.0, r2_oos=None,
            n=5, n_ok=5, n_fallback=0, n_skipped=0,
        )]
        report = metrics.aggregate_report(rows)
        r2_row = [r for r in report if r.metric == "r2_oos"][0]
        assert r2_row.mean is None and r2_row.n_days_raw == 0

    def test_sorted_by_model(self):
        rows = self.daily() + [metrics.DailyMetrics(
            day=DAY, model="aa", predictor_set="x", rmse=1.0, r2_oos=0.5,
            n=5, n_ok=5, n_fallback=0, n_skipped=0,
        )]
        report = metrics.aggregate_report(rows)
        groups = [(r.model, r.predictor_set) for r in report]
        assert groups == sorted(groups)
        assert [r.metric for r in report] == ["rmse", "r2_oos"] * 2

    def test_trim_count_invariant(self):
        with pytest.raises(ShapeError):
            metrics.AggregateRow(model="a", predictor_set="x", metric="rmse",
                                 mean=1.0, median=1.0, std=0.0,
                                 n_days_raw=2, n_days_trimmed=3)


class TestWriters:
    def test_daily_metrics_csv(self, tmp_path):
        rows = [metrics.DailyMetrics(
            day=DAY, model="a", predictor_set="x", rmse=0.125, r2_oos=None,
            n=3, n_ok=2, n_fallback=1, n_skipped=0,
        )]
        path = tmp_path / "daily.csv"
        metrics.write_daily_metrics(rows, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "date,model,predictor_set,rmse,r2_oos,n,n_ok,n_fallback,n_skipped"
        assert lines[1] == "2021-03-01,a,x,0.125,,3,2,1,0"
        assert lines[2] == ""

    def test_aggregate_report_csv(self, tmp_path):
        rows = [metrics.AggregateRow(
            model="a", predictor_set="x", metric="rmse",
            mean=0.5, median=0.25, std=0.125, n_days_raw=10, n_days_trimmed=9,
        )]
        path = tmp_path / "agg.csv"
        metrics.write_aggregate_report(rows, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "model,predictor_set,metric,mean,median,std,n_days_raw,n_days_trimmed"
        assert lines[1] == "a,x,rmse,0.5,0.25,0.125,10,9"

    def test_float_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable as short decimal
        rows = [metrics.DailyMetrics(
            day=DAY, model="a", predictor_set="x", rmse=value, r2_oos=value,
            n=1, n_ok=1, n_fallback=0, n_skipped=0,
        )]
        path = tmp_path / "daily.csv"
        metrics.write_daily_metrics(rows, path)
        fields = path.read_text().split("\n")[1].split(",")
        assert float(fields[3]) == value
        assert float(fields[4]) == value

    def test_render_table(self):
        rows = [
            metrics.AggregateRow(model="naive", predictor_set="none", metric="rmse",
                                 mean=0.5, median=0.5, std=0.1,
                                 n_days_raw=5, n_days_trimmed=5),
            metrics.AggregateRow(model="lstm", predictor_set="vix", metric="r2_oos",
                                 mean=None, median=None, std=None,
                                 n_days_raw=0, n_days_trimmed=0),
        ]
        table = metrics.render_aggregate_table(rows)
        assert "naive" in table and "lstm" in table
        assert "mean" in table.splitlines()[0]
        assert "-" in table.splitlines()[3]  # undefined cells rendered as dashes
