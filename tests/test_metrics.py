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
from minutecast.errors import ShapeError

DAY = dt.date(2021, 3, 1)
NAN = math.nan


def block(y, y_hat, y_naive, status=None, models=(("m", "p"),), day=DAY):
    """A hand-built day at minutes 41, 42, ...

    y_hat and status hold one row per model, or a flat list for one model;
    status defaults to ok everywhere.
    """
    y_hat = np.array(y_hat, dtype=float).reshape(len(models), len(y))
    status = ["ok"] * y_hat.size if status is None else np.ravel(status).tolist()
    codes = [rolling._STATUSES.index(s) for s in status]
    return rolling.DayForecasts(
        day=day, minutes=np.arange(41, 41 + len(y)),
        y_true=np.array(y, dtype=float), y_naive=np.array(y_naive, dtype=float),
        models=tuple(models), y_hat=y_hat,
        status=np.array(codes, dtype=np.uint8).reshape(y_hat.shape),
    )


def score(*blocks):
    return metrics.compute_daily_metrics(rolling.Forecasts(blocks))


def aggregate(values):
    """aggregate_report's r2_oos row for one model with these daily values."""
    rows = [
        metrics.DailyMetrics(
            day=DAY + dt.timedelta(days=i), model="a", predictor_set="x",
            rmse=1.0, r2_oos=v, n=1, n_ok=1, n_fallback=0, n_skipped=0,
        )
        for i, v in enumerate(values)
    ]
    return metrics.aggregate_report(rows)[1]


def stats(row):
    return row.mean, row.median, row.std


def numpy_stats(values):
    """The statistics aggregate_report reports for values it keeps whole."""
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(np.median(arr)), float(arr.std(ddof=1))


def manual_percentile(sorted_values, p):
    """Linear interpolation between order statistics at rank p/100*(n-1)."""
    position = p / 100.0 * (len(sorted_values) - 1)
    below = math.floor(position)
    above = math.ceil(position)
    weight = position - below
    return sorted_values[below] * (1 - weight) + sorted_values[above] * weight


class TestRmseDaily:
    def test_perfect_forecast(self):
        [row] = score(block([0.5] * 10, [0.5] * 10, [0.0] * 10))
        assert row.rmse == 0.0

    def test_hand_case(self):
        [row] = score(block([0.0, 0.0], [3.0, 4.0], [0.0, 0.0]))
        assert row.rmse == pytest.approx(math.sqrt(12.5), rel=1e-15)

    def test_skipped_records_excluded(self):
        [row] = score(block([0.0, 0.0], [3.0, 4.0], [0.0, 0.0]))
        [with_skip] = score(block([0.0, 0.0, 0.0], [3.0, 4.0, NAN], [0.0, 0.0, NAN],
                                  ["ok", "ok", "skipped"]))
        assert with_skip.rmse == row.rmse
        assert (with_skip.n, with_skip.n_skipped) == (2, 1)

    def test_fallback_records_included(self):
        [row] = score(block([0.0, 0.0], [3.0, 4.0], [3.0, 4.0], ["fallback", "fallback"]))
        assert row.rmse == pytest.approx(math.sqrt(12.5), rel=1e-15)
        assert (row.n, row.n_fallback) == (2, 2)

    def test_empty_is_none(self):
        # a model-day with no scored forecast gets no row, so no rmse
        assert score(block([0.0], [NAN], [NAN], ["skipped"])) == []

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, scale):
        y, y_hat = np.array([0.1, -0.2]), np.array([0.4, 0.3])
        [base] = score(block(y, y_hat, [0.0, 0.0]))
        [scaled] = score(block(y * scale, y_hat * scale, [0.0, 0.0]))
        assert scaled.rmse == pytest.approx(scale * base.rmse, rel=1e-12)


class TestR2OosDaily:
    def test_hand_case_zero(self):
        [row] = score(block([2.0, 4.0], [3.0, 3.0], [1.0, 5.0]))
        assert row.r2_oos == 0.0

    def test_perfect_forecast_is_one(self):
        [row] = score(block([0.3, 0.7], [0.3, 0.7], [0.1, 0.2]))
        assert row.r2_oos == 1.0

    def test_window_mean_forecast_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=50)
        [row] = score(block(y, np.zeros(50), np.zeros(50)))
        assert row.r2_oos == 0.0

    def test_zero_denominator_is_none(self):
        [row] = score(block([0.5, 0.5], [0.1, 0.2], [0.5, 0.5]))
        assert row.r2_oos is None

    def test_empty_is_none(self):
        # a model-day with no scored forecast gets no row, so no R²
        assert score(block([0.0, 0.0], [NAN, NAN], [0.0, NAN], ["skipped", "skipped"])) == []

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_one(self, data):
        n = data.draw(st.integers(2, 8))
        vals = st.lists(st.floats(min_value=-10, max_value=10), min_size=n, max_size=n)
        [row] = score(block(data.draw(vals), data.draw(vals), data.draw(vals)))
        if row.r2_oos is not None:
            assert row.r2_oos <= 1.0

    def test_ordering_consistency_with_rmse(self):
        # same targets and window means, one model strictly closer
        rng = np.random.default_rng(9)
        y = rng.normal(size=20)
        naive = y + rng.normal(size=20) * 0.5
        close, far = score(block(y, [y + 0.1, y + 0.4], naive,
                                 models=[("close", "p"), ("far", "p")]))
        assert close.rmse < far.rmse
        assert close.r2_oos > far.r2_oos


class TestPercentiles:
    def test_bounds_on_1_to_100(self):
        # the band is [1.99, 99.01]: 1 and 100 fall outside it
        row = aggregate(range(1, 101))
        assert stats(row) == numpy_stats(range(2, 100))
        assert row.n_days_trimmed == 98

    def test_bounds_match_manual_interpolation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.normal(size=int(rng.integers(3, 250))).tolist()
            ordered = sorted(values)
            lo = manual_percentile(ordered, 1.0)
            hi = manual_percentile(ordered, 99.0)
            kept = [v for v in values if lo <= v <= hi]
            row = aggregate(values)
            assert row.n_days_trimmed == len(kept)
            assert stats(row) == pytest.approx(numpy_stats(kept), abs=1e-12)

    def test_values_on_a_band_edge_are_kept(self):
        # 101 values put both edges on order statistics: 1.0 and 99.0
        row = aggregate(range(101))
        assert stats(row) == numpy_stats(range(1, 100))
        assert row.n_days_trimmed == 99

    def test_trim_1_to_100_keeps_central_98(self):
        row = aggregate(range(1, 101))
        assert (row.mean, row.median) == (50.5, 50.5)
        assert (row.n_days_raw, row.n_days_trimmed) == (100, 98)

    def test_all_equal_nothing_dropped(self):
        row = aggregate([7.0] * 10)
        assert stats(row) == (7.0, 7.0, 0.0)
        assert row.n_days_trimmed == 10

    def test_order_preserving_subset(self):
        # the kept values are summed in day order, bit for bit
        rng = np.random.default_rng(11)
        values = rng.normal(size=200).tolist()
        lo, hi = np.percentile(values, metrics.TRIM_PERCENTILES)
        kept = [v for v in values if lo <= v <= hi]
        row = aggregate(values)
        assert len(kept) == row.n_days_trimmed < len(values)
        assert stats(row) == numpy_stats(kept)

    def test_three_values_are_trimmed(self):
        row = aggregate([1.0, 2.0, 3.0])
        assert stats(row) == (2.0, 2.0, 0.0)
        assert row.n_days_trimmed == 1

    def test_short_input_passes_through(self):
        row = aggregate([1.0, 2.0])
        assert stats(row) == numpy_stats([1.0, 2.0])
        assert row.n_days_trimmed == 2


class TestAggregateStats:
    def test_hand_case(self):
        # tied ends keep the band's edges on the data: nothing is trimmed
        row = aggregate([1.0, 1.0, 2.0, 3.0, 3.0])
        assert stats(row) == (2.0, 2.0, 1.0)
        assert row.n_days_trimmed == 5

    def test_even_count_median_averages_middle_two(self):
        row = aggregate([1.0, 1.0, 2.0, 3.0, 4.0, 4.0])
        assert row.median == 2.5
        assert row.n_days_trimmed == 6

    def test_single_value(self):
        row = aggregate([4.2])
        assert stats(row) == (4.2, 4.2, 0.0)
        assert (row.n_days_raw, row.n_days_trimmed) == (1, 1)

    def test_constant_values(self):
        assert aggregate([3.0, 3.0, 3.0]).std == 0.0

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_mean_within_range(self, values):
        row = aggregate(values)
        assert min(values) - 1e-9 <= row.mean <= max(values) + 1e-9
        assert row.std >= 0.0


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


class TestComputeDailyMetrics:
    def test_grouping_counts_and_values(self):
        d2 = DAY + dt.timedelta(days=1)
        first_day = block(
            [0.0, 0.0, 0.0], [[3.0, 4.0, NAN], [1.0, 1.5, NAN]], [0.1, 0.1, 0.1],
            [["ok", "ok", "skipped"], ["ok", "fallback", "skipped"]],
            models=[("a", "x"), ("b", "y")],
        )
        rows = score(first_day, block([0.5], [0.5], [0.5], models=[("a", "x")], day=d2))
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
        assert score(block([0.0], [NAN], [NAN], ["skipped"], models=[("a", "x")])) == []

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
        # rmse 1..10: the band [1.09, 9.91] drops the first and last day
        rmse_row = report[0]
        assert stats(rmse_row) == numpy_stats([2.0 + i for i in range(8)])
        assert rmse_row.n_days_trimmed == 8

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
