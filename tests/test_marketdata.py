"""Ingestion, session filtering, feature alignment, synthetic generators."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from minutecast import marketdata as md
from minutecast.errors import DataError, MissingBarError, ParseError

DAY = dt.date(2012, 3, 5)


def series_from_values(prices, vixes, start=md.SESSION_START_MINUTE, day=DAY):
    bars = [
        md.MinuteBar(day=day, minute=start + i, spy_price=p, vix_annual=v)
        for i, (p, v) in enumerate(zip(prices, vixes))
    ]
    return md.DaySeries.from_bars(day, bars)


def constant_series(price=100.0, vix=18.0, day=DAY):
    n = md.SESSION_MINUTES
    return series_from_values([price] * n, [vix] * n, day=day)


class TestMinuteIndexing:
    def test_session_bounds(self):
        assert md.minute_to_time(md.SESSION_START_MINUTE) == "09:40"
        assert md.minute_to_time(md.SESSION_END_MINUTE) == "15:50"
        assert md.SESSION_MINUTES == 371

    def test_first_prediction_minute_label(self):
        assert md.minute_to_time(41) == "10:11"

    def test_round_trip(self):
        for minute in (0, 10, 41, 200, 380):
            assert md.time_to_minute(md.minute_to_time(minute)) == minute

    def test_malformed_time(self):
        with pytest.raises(ValueError):
            md.time_to_minute("1005")
        with pytest.raises(ValueError):
            md.time_to_minute("25:00")


class TestLoadMinuteBars:
    def write(self, tmp_path, rows, header="date,time,spy_price,vix"):
        path = tmp_path / "bars.csv"
        body = "\n".join([header] + rows)
        path.write_text(body + "\n" if body else "")
        return path

    def full_day_rows(self, day="2012-03-05", price=100.0, vix=18.0):
        return [
            f"{day},{md.minute_to_time(m)},{price},{vix}"
            for m in range(md.SESSION_START_MINUTE, md.SESSION_END_MINUTE + 1)
        ]

    def test_three_day_file(self, tmp_path):
        rows = (
            self.full_day_rows("2012-03-05")
            + self.full_day_rows("2012-03-06")
            + self.full_day_rows("2012-03-07")
        )
        days = md.load_minute_bars(self.write(tmp_path, rows))
        assert [d.day.isoformat() for d in days] == ["2012-03-05", "2012-03-06", "2012-03-07"]
        for d in days:
            assert len(d.bars) == md.SESSION_MINUTES
            assert not d.has_gaps
            assert all(
                md.SESSION_START_MINUTE <= b.minute <= md.SESSION_END_MINUTE
                for b in d.bars
            )

    def test_out_of_session_bar_dropped(self, tmp_path):
        rows = ["2012-03-05,09:35,99.0,18.0"] + self.full_day_rows()
        days = md.load_minute_bars(self.write(tmp_path, rows))
        assert len(days) == 1
        assert days[0].bars[0].minute == md.SESSION_START_MINUTE

    def test_duplicate_minute_rejected(self, tmp_path):
        rows = self.full_day_rows()
        rows.insert(5, rows[4])
        with pytest.raises(DataError, match="duplicate"):
            md.load_minute_bars(self.write(tmp_path, rows))

    def test_non_monotone_rejected(self, tmp_path):
        rows = self.full_day_rows()
        rows[10], rows[11] = rows[11], rows[10]
        with pytest.raises(DataError, match="non-monotone"):
            md.load_minute_bars(self.write(tmp_path, rows))

    def test_empty_and_header_only(self, tmp_path):
        assert md.load_minute_bars(self.write(tmp_path, [], header="")) == []
        assert md.load_minute_bars(self.write(tmp_path, [])) == []

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, self.full_day_rows(), header="a,b,c,d")
        with pytest.raises(ParseError, match="line 1"):
            md.load_minute_bars(path)

    def test_malformed_row_carries_line_number(self, tmp_path):
        rows = self.full_day_rows()
        rows[2] = "2012-03-05,09:43,not_a_number,18.0"
        with pytest.raises(ParseError, match="line 4"):
            md.load_minute_bars(self.write(tmp_path, rows))

    def test_nonpositive_price_rejected(self, tmp_path):
        rows = self.full_day_rows()
        rows[0] = "2012-03-05,09:40,0.0,18.0"
        with pytest.raises(ParseError):
            md.load_minute_bars(self.write(tmp_path, rows))

    @pytest.mark.parametrize(
        "price, vix", [("nan", "18.0"), ("inf", "18.0"), ("100.0", "inf"), ("100.0", "nan")]
    )
    def test_non_finite_value_rejected(self, tmp_path, price, vix):
        rows = self.full_day_rows()
        rows[3] = f"2012-03-05,09:43,{price},{vix}"
        with pytest.raises(ParseError, match="line 5: .*finite"):
            md.load_minute_bars(self.write(tmp_path, rows))

    def test_short_day_dropped(self, tmp_path, caplog):
        short = [
            f"2012-03-06,{md.minute_to_time(m)},100.0,18.0"
            for m in range(md.SESSION_START_MINUTE, md.SESSION_START_MINUTE + 20)
        ]
        rows = self.full_day_rows("2012-03-05") + short
        with caplog.at_level("WARNING"):
            days = md.load_minute_bars(self.write(tmp_path, rows))
        assert [d.day.isoformat() for d in days] == ["2012-03-05"]
        assert any("2012-03-06" in r.message for r in caplog.records)


class TestLogReturn5Min:
    def test_constant_price_is_zero(self):
        series = constant_series()
        for m in (14, 100, md.SESSION_END_MINUTE):
            assert md.log_return_5min(series, m) == 0.0

    def test_one_percent_move(self):
        prices = [100.0] * 10
        prices[6] = 101.0  # minute 16; pairs with minute 12 at 100
        series = series_from_values(prices, [18.0] * 10)
        got = md.log_return_5min(series, md.SESSION_START_MINUTE + 6)
        assert got == pytest.approx(0.009950330853168092, abs=1e-15)

    def test_telescoping_identity(self):
        params = md.SynthParams(n_days=1, seed=11)
        series = md.generate_synthetic_day(params, DAY)
        for m in range(20, 60):
            one_minute = sum(md.log_return_1min(series, j) for j in range(m - 3, m + 1))
            assert md.log_return_5min(series, m) == pytest.approx(one_minute, rel=1e-12, abs=1e-15)

    def test_missing_bar_signals(self):
        series = series_from_values([100.0] * 3, [18.0] * 3)
        with pytest.raises(MissingBarError):
            md.log_return_5min(series, md.SESSION_START_MINUTE + 2)


class TestVixToIntraday:
    def test_zero(self):
        assert md.vix_to_intraday(0.0) == 0.0

    def test_reference_level(self):
        # 19.519 annualized, scaled by sqrt(1440)*sqrt(252)
        assert md.vix_to_intraday(19.519) == pytest.approx(0.032402315591108365, abs=1e-15)

    def test_denominator_maps_to_one(self):
        assert md.vix_to_intraday(md.VIX_INTRADAY_DENOM) == pytest.approx(1.0, abs=1e-12)
        assert md.vix_to_intraday(602.3946) == pytest.approx(1.0, abs=1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            md.vix_to_intraday(-1.0)

    @given(st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=0.0, max_value=50.0))
    def test_linearity(self, x, a):
        assert md.vix_to_intraday(a * x) == pytest.approx(a * md.vix_to_intraday(x), rel=1e-12, abs=1e-300)


class TestComputeVrp:
    def test_zero_case(self):
        assert md.compute_vrp(0.0, 0.0) == 0.0

    def test_pure_vix_term(self):
        assert md.compute_vrp(0.0, 0.03) == pytest.approx(-0.0009, abs=1e-18)

    def test_equal_terms_cancel(self):
        assert md.compute_vrp(0.03, 0.03) == 0.0

    def test_negative_vix_rejected(self):
        with pytest.raises(ValueError):
            md.compute_vrp(0.0, -0.01)


class TestComputeDeltaVix:
    def test_constant_day(self):
        series = constant_series()
        for m in (16, 40, 380):
            assert md.compute_delta_vix(series, m) == 0.0

    def test_hand_values(self):
        # annual levels chosen so the intraday values are exactly 0.030 and 0.032
        vixes = [0.030 * md.VIX_INTRADAY_DENOM] * 10
        vixes[5] = 0.032 * md.VIX_INTRADAY_DENOM
        series = series_from_values([100.0] * 10, vixes)
        m = md.SESSION_START_MINUTE + 10  # m-5 hits index 5, m-6 hits index 4
        assert md.compute_delta_vix(series, m) == pytest.approx(0.002, abs=1e-15)

    def test_antisymmetry(self):
        vixes_a = [20.0] * 10
        vixes_a[5] = 22.0
        vixes_b = [22.0] * 10
        vixes_b[5] = 20.0
        m = md.SESSION_START_MINUTE + 10
        a = md.compute_delta_vix(series_from_values([100.0] * 10, vixes_a), m)
        b = md.compute_delta_vix(series_from_values([100.0] * 10, vixes_b), m)
        assert a == pytest.approx(-b, rel=1e-12)


class TestBuildFeatureRows:
    def test_gapless_day_row_range(self):
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=3), DAY)
        rows = md.build_feature_rows(series)
        minutes = [r.minute for r in rows]
        assert minutes[0] == md.SESSION_START_MINUTE + md.MAX_FEATURE_LAG
        assert md.minute_to_time(minutes[0]) == "09:49"
        assert minutes[-1] == md.SESSION_END_MINUTE
        assert len(rows) == md.SESSION_MINUTES - md.MAX_FEATURE_LAG

    def test_missing_bar_suppresses_dependents(self):
        full = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=3), DAY)
        m0 = 200
        gappy = md.DaySeries.from_bars(DAY, [b for b in full.bars if b.minute != m0])
        assert gappy.has_gaps
        kept = {r.minute for r in md.build_feature_rows(gappy)}
        lost = {r.minute for r in md.build_feature_rows(full)} - kept
        assert lost == {m0, m0 + 4, m0 + 5, m0 + 6, m0 + 9}

    def test_constant_day_values(self):
        vix = 18.0
        rows = md.build_feature_rows(constant_series(vix=vix))
        intraday = md.vix_to_intraday(vix)
        for r in rows:
            assert r.r5 == 0.0 and r.lag_r5 == 0.0 and r.lag_r5_sq == 0.0
            assert r.dvix_lag == 0.0
            assert r.vix_lag == pytest.approx(intraday, rel=1e-15)
            assert r.vrp_lag == pytest.approx(-intraday * intraday, rel=1e-15)

    def test_alignment_against_bars(self):
        """Every stored feature recomputes from the bars at its stated lag."""
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=9), DAY)
        rows = md.build_feature_rows(series)
        for r in rows[::37]:
            m = r.minute
            assert r.r5 == pytest.approx(md.log_return_5min(series, m), abs=1e-18)
            assert r.lag_r5 == pytest.approx(md.log_return_5min(series, m - 5), abs=1e-18)
            assert r.lag_r5_sq == r.lag_r5 * r.lag_r5
            assert r.vix_lag == pytest.approx(md.vix_to_intraday(series.vix(m - 5)), abs=1e-18)
            assert r.vix_sq_lag == r.vix_lag * r.vix_lag
            assert r.dvix_lag == pytest.approx(md.compute_delta_vix(series, m), abs=1e-18)
            expected_vrp = md.compute_vrp(md.log_return_1min(series, m - 5), r.vix_lag)
            assert r.vrp_lag == pytest.approx(expected_vrp, abs=1e-18)

    def test_pure_function(self):
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=5), DAY)
        assert md.build_feature_rows(series) == md.build_feature_rows(series)


class TestGenerateSyntheticDay:
    def test_deterministic(self):
        params = md.SynthParams(n_days=1, seed=77)
        a = md.generate_synthetic_day(params, DAY)
        b = md.generate_synthetic_day(params, DAY)
        assert a == b

    def test_distinct_seeds_distinct_paths(self):
        a = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=1), DAY)
        b = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=2), DAY)
        assert a != b

    def test_distinct_days_distinct_paths(self):
        params = md.SynthParams(n_days=2, seed=1)
        a = md.generate_synthetic_day(params, DAY)
        b = md.generate_synthetic_day(params, DAY + dt.timedelta(days=1))
        assert [x.spy_price for x in a.bars] != [x.spy_price for x in b.bars]

    def test_gapless_session(self):
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=4), DAY)
        assert len(series.bars) == md.SESSION_MINUTES
        assert not series.has_gaps

    def test_zero_vol_constant_price(self):
        params = md.SynthParams(n_days=1, seed=4, return_vol=0.0)
        series = md.generate_synthetic_day(params, DAY)
        prices = {b.spy_price for b in series.bars}
        assert prices == {100.0}

    def test_leverage_correlation_monte_carlo(self):
        params = md.SynthParams(n_days=30, seed=123, leverage_corr=-0.4)
        rets, vix_innov = [], []
        mean_log = math.log(params.vix_mean)
        for day in md.business_days(dt.date(2012, 1, 2), 30):
            series = md.generate_synthetic_day(params, day)
            logp = np.log([b.spy_price for b in series.bars])
            logv = np.log([b.vix_annual for b in series.bars])
            rets.append(np.diff(logp))
            # invert the AR(1) to recover the innovation sequence
            innov = (logv[1:] - mean_log - params.vix_persistence * (logv[:-1] - mean_log))
            vix_innov.append(innov / params.vix_vol)
        r = np.concatenate(rets)
        v = np.concatenate(vix_innov)
        assert len(r) > 10_000
        corr = np.corrcoef(r, v)[0, 1]
        assert corr == pytest.approx(-0.4, abs=0.05)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            md.SynthParams(n_days=1, seed=0, vix_persistence=1.0)
        with pytest.raises(ValueError):
            md.SynthParams(n_days=1, seed=0, leverage_corr=-2.0)
        with pytest.raises(ValueError):
            md.SynthParams(n_days=1, seed=0, vix_mean=0.0)


class TestGenerateAffineSignalDay:
    def test_target_is_affine_in_vix_lag(self):
        params = md.SynthParams(n_days=1, seed=21, vix_persistence=0.5, vix_vol=0.1)
        slope = 1.5
        series = md.generate_affine_signal_day(params, DAY, slope=slope, snr=10.0)
        rows = md.build_feature_rows(series)
        y = np.array([r.r5 for r in rows])
        x = np.array([r.vix_lag for r in rows])
        resid = y - slope * x
        # noise variance should be about a tenth of the signal variance
        signal_var = np.var(slope * x)
        assert np.var(resid) == pytest.approx(signal_var / 10.0, rel=0.25)
        # and a regression recovers the slope
        beta = np.polyfit(x, y, 1)[0]
        assert beta == pytest.approx(slope, rel=0.15)

    def test_deterministic(self):
        params = md.SynthParams(n_days=1, seed=21)
        a = md.generate_affine_signal_day(params, DAY)
        b = md.generate_affine_signal_day(params, DAY)
        assert a == b

    def test_gapless(self):
        series = md.generate_affine_signal_day(md.SynthParams(n_days=1, seed=2), DAY)
        assert len(series.bars) == md.SESSION_MINUTES


class TestBusinessDays:
    def test_skips_weekends(self):
        days = md.business_days(dt.date(2012, 3, 2), 4)  # a Friday
        assert [d.isoformat() for d in days] == [
            "2012-03-02", "2012-03-05", "2012-03-06", "2012-03-07",
        ]
