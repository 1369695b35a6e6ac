"""Ingestion, session filtering, feature alignment, synthetic generators.

The feature oracle is the per-minute builder that the day table replaced:
it looks each bar up by minute and computes one row at a time.
"""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minutecast import marketdata as md
from minutecast.errors import DataError, ParseError

DAY = dt.date(2012, 3, 5)


def bar_table(prices, vixes, start=md.SESSION_START_MINUTE):
    bars = np.zeros(len(prices), md.BAR_DTYPE)
    bars["minute"] = np.arange(start, start + len(prices))
    bars["spy_price"] = prices
    bars["vix"] = vixes
    return bars


def series_from_values(prices, vixes, start=md.SESSION_START_MINUTE, day=DAY):
    return md.DaySeries(day, bar_table(prices, vixes, start))


def without_minutes(series, minutes):
    """The same day with the bars at `minutes` left out."""
    return md.DaySeries(series.day, series.bars[~np.isin(series.bars["minute"], list(minutes))])


def constant_series(price=100.0, vix=18.0, day=DAY):
    n = md.SESSION_MINUTES
    return series_from_values([price] * n, [vix] * n, day=day)


def column_at(series, name, minute):
    """One feature of the table row at `minute`."""
    table = md.build_feature_rows(series)
    (index,) = np.flatnonzero(table["minute"] == minute)
    return float(table[name][index])


def oracle_feature_rows(series):
    """The per-minute feature builder, one dict per row whose bars all exist."""
    price = {m: p for m, p, _ in series.bars.tolist()}
    vix = {m: v for m, _, v in series.bars.tolist()}

    def log_return(m, span):
        return math.log(price[m]) - math.log(price[m - span])

    def vix_to_intraday(m):
        return vix[m] / md.VIX_INTRADAY_DENOM

    rows = []
    for m in range(md.SESSION_START_MINUTE + md.MAX_FEATURE_LAG, md.SESSION_END_MINUTE + 1):
        try:
            r5 = log_return(m, 4)
            lag_r5 = log_return(m - 5, 4)
            vix_lag = vix_to_intraday(m - 5)
            dvix_lag = vix_to_intraday(m - 5) - vix_to_intraday(m - 6)
            r1 = log_return(m - 5, 1)
            vrp_lag = r1 * r1 - vix_lag * vix_lag
        except KeyError:
            continue
        rows.append(dict(
            minute=m, r5=r5, lag_r5=lag_r5, lag_r5_sq=lag_r5 * lag_r5,
            vix_lag=vix_lag, dvix_lag=dvix_lag, vrp_lag=vrp_lag,
        ))
    return rows


@st.composite
def gappy_days(draw):
    """A synthetic day with scattered and block gaps, and maybe a VIX of 1e200."""
    params = md.SynthParams(
        n_days=1,
        seed=draw(st.integers(0, 2**16)),
        return_vol=draw(st.sampled_from([0.0, 0.0005, 0.02])),
    )
    series = md.generate_synthetic_day(params, DAY)
    minutes = st.integers(md.SESSION_START_MINUTE, md.SESSION_END_MINUTE)
    missing = draw(st.sets(minutes, max_size=30))
    first = draw(minutes)
    missing |= set(range(first, first + draw(st.integers(0, 40))))
    huge = draw(st.none() | minutes)  # its squared intraday VIX overflows
    if huge is not None:
        series.bars["vix"][series.bars["minute"] == huge] = 1e200
    return without_minutes(series, missing)


# math.log(99.92155797156265) == 4.604385457885143, while np.log on numpy
# 2.4.6 gives 4.604385457885144: the table must take logs as the oracle does
_ROUNDING_PRICES = [100.0] * md.SESSION_MINUTES
_ROUNDING_PRICES[40] = 99.92155797156265
ROUNDING_DAY = series_from_values(_ROUNDING_PRICES, [18.0] * md.SESSION_MINUTES)


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

    def test_malformed_time_raises_every_time(self):
        # parsed times are cached; a failed parse is not, so it fails alike each call
        for _ in range(3):
            with pytest.raises(ValueError, match="time out of range: '25:00'"):
                md.time_to_minute("25:00")
            assert md.time_to_minute("10:11") == 41

    def test_scan_reports_each_row_with_a_bad_time(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(
            "date,time,spy_price,vix\n"
            "2021-03-01,09:40,100.0,18.0\n"
            "2021-03-01,9h41,100.0,18.0\n"
            "2021-03-01,09:42,100.0,18.0\n"
            "2021-03-01,9h41,100.0,18.0\n"
        )
        scan = md.scan_bars(path)
        assert scan.errors == [
            "line 3: expected HH:MM, got '9h41'",
            "line 5: expected HH:MM, got '9h41'",
        ]


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
            assert d.bars.dtype == md.BAR_DTYPE
            assert d.bars["minute"].tolist() == list(
                range(md.SESSION_START_MINUTE, md.SESSION_END_MINUTE + 1)
            )

    def test_out_of_session_bar_dropped(self, tmp_path):
        rows = ["2012-03-05,09:35,99.0,18.0"] + self.full_day_rows()
        days = md.load_minute_bars(self.write(tmp_path, rows))
        assert len(days) == 1
        assert days[0].bars["minute"][0] == md.SESSION_START_MINUTE

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


class TestDaySeries:
    @pytest.mark.parametrize("column, index, value, message", [
        ("minute", 0, md.SESSION_START_MINUTE - 1, "outside session"),
        ("minute", 2, md.SESSION_END_MINUTE + 1, "outside session"),
        ("minute", 1, 20, "out of order on 2012-03-05 at minute 20"),  # repeats minute 20
        ("minute", 2, 19, "out of order on 2012-03-05 at minute 19"),  # runs backwards
        ("spy_price", 1, math.nan, "spy_price must be finite and positive, got nan"),
        ("spy_price", 1, math.inf, "spy_price must be finite and positive, got inf"),
        ("spy_price", 1, 0.0, "spy_price must be finite and positive, got 0.0"),
        ("vix", 1, -1.0, "vix must be finite and non-negative, got -1.0"),
        ("vix", 1, math.nan, "vix must be finite and non-negative, got nan"),
        ("vix", 1, math.inf, "vix must be finite and non-negative, got inf"),
    ], ids=["early-minute", "late-minute", "repeated-minute", "backwards-minute", "nan-price",
            "inf-price", "zero-price", "negative-vix", "nan-vix", "inf-vix"])
    def test_invariant_violation_raises(self, column, index, value, message):
        bars = bar_table([100.0] * 3, [18.0] * 3, start=20)
        md.DaySeries(DAY, bars.copy())  # the unchanged table is a valid day
        bars[column][index] = value
        with pytest.raises(DataError, match=message):
            md.DaySeries(DAY, bars)


class TestLogReturn5Min:
    def test_constant_price_is_zero(self):
        table = md.build_feature_rows(constant_series())
        for m in (19, 100, md.SESSION_END_MINUTE):
            assert table["r5"][table["minute"] == m].tolist() == [0.0]

    def test_one_percent_move(self):
        prices = [100.0] * 20
        prices[10] = 101.0  # minute 20; pairs with minute 16 at 100
        series = series_from_values(prices, [18.0] * 20)
        got = column_at(series, "r5", md.SESSION_START_MINUTE + 10)
        assert got == pytest.approx(0.009950330853168092, abs=1e-15)

    def test_telescoping_identity(self):
        params = md.SynthParams(n_days=1, seed=11)
        series = md.generate_synthetic_day(params, DAY)
        log_price = {m: math.log(p) for m, p, _ in series.bars.tolist()}
        table = md.build_feature_rows(series)
        for m, r5, lag_r5 in zip(table["minute"][:40], table["r5"], table["lag_r5"]):
            one_minute = sum(log_price[j] - log_price[j - 1] for j in range(m - 3, m + 1))
            assert r5 == pytest.approx(one_minute, rel=1e-12, abs=1e-15)
            if m - 5 in table["minute"]:
                assert lag_r5 == table["r5"][table["minute"] == m - 5][0]

    def test_missing_bar_signals(self):
        # minutes 10..21 minus 16: rows 20 and 21 need bar 16, row 19 does not
        series = without_minutes(series_from_values([100.0] * 12, [18.0] * 12), [16])
        assert md.build_feature_rows(series)["minute"].tolist() == [19]


def short_day_vix_lags(vix):
    """The vix_lag column of a short constant day quoting `vix`."""
    return md.build_feature_rows(series_from_values([100.0] * 12, [vix] * 12))["vix_lag"]


class TestVixToIntraday:
    def test_zero(self):
        assert short_day_vix_lags(0.0).tolist() == [0.0] * 3

    def test_reference_level(self):
        # 19.519 annualized, scaled by sqrt(1440)*sqrt(252)
        assert short_day_vix_lags(19.519)[0] == pytest.approx(0.032402315591108365, abs=1e-15)

    def test_denominator_maps_to_one(self):
        assert short_day_vix_lags(md.VIX_INTRADAY_DENOM)[0] == pytest.approx(1.0, abs=1e-12)
        assert short_day_vix_lags(602.3946)[0] == pytest.approx(1.0, abs=1e-5)

    @settings(deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=0.0, max_value=50.0))
    def test_linearity(self, x, a):
        scaled = short_day_vix_lags(a * x)[0]
        assert scaled == pytest.approx(a * short_day_vix_lags(x)[0], rel=1e-12, abs=1e-300)


def vrp_lag(r1, vix_intraday):
    """vrp_lag of a day whose one-minute return into minute 15 is `r1`."""
    prices = [100.0] * 5 + [100.0 * math.exp(r1)] * 7
    vixes = [vix_intraday * md.VIX_INTRADAY_DENOM] * 12
    return column_at(series_from_values(prices, vixes), "vrp_lag", 20)


class TestComputeVrp:
    def test_zero_case(self):
        assert vrp_lag(0.0, 0.0) == 0.0

    def test_pure_vix_term(self):
        assert vrp_lag(0.0, 0.03) == pytest.approx(-0.0009, abs=1e-18)

    def test_equal_terms_cancel(self):
        assert vrp_lag(0.03, 0.03) == pytest.approx(0.0, abs=1e-15)

    def test_negative_vix_rejected(self):
        # the intraday VIX in vrp_lag is never negative: bars refuse one
        with pytest.raises(DataError):
            series_from_values([100.0] * 12, [18.0] * 11 + [-0.01])


class TestComputeDeltaVix:
    def test_constant_day(self):
        table = md.build_feature_rows(constant_series())
        assert table["dvix_lag"].tolist() == [0.0] * len(table)

    def test_hand_values(self):
        # annual levels chosen so the intraday values are exactly 0.030 and 0.032
        vixes = [0.030 * md.VIX_INTRADAY_DENOM] * 20
        vixes[5] = 0.032 * md.VIX_INTRADAY_DENOM
        series = series_from_values([100.0] * 20, vixes)
        m = md.SESSION_START_MINUTE + 10  # m-5 hits index 5, m-6 hits index 4
        assert column_at(series, "dvix_lag", m) == pytest.approx(0.002, abs=1e-15)

    def test_antisymmetry(self):
        vixes_a = [20.0] * 20
        vixes_a[5] = 22.0
        vixes_b = [22.0] * 20
        vixes_b[5] = 20.0
        m = md.SESSION_START_MINUTE + 10
        a = column_at(series_from_values([100.0] * 20, vixes_a), "dvix_lag", m)
        b = column_at(series_from_values([100.0] * 20, vixes_b), "dvix_lag", m)
        assert a == pytest.approx(-b, rel=1e-12)


class TestBuildFeatureRows:
    def test_gapless_day_row_range(self):
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=3), DAY)
        table = md.build_feature_rows(series)
        minutes = table["minute"]
        assert minutes[0] == md.SESSION_START_MINUTE + md.MAX_FEATURE_LAG
        assert md.minute_to_time(minutes[0]) == "09:49"
        assert minutes[-1] == md.SESSION_END_MINUTE
        assert len(table) == md.SESSION_MINUTES - md.MAX_FEATURE_LAG
        assert np.all(table["day"] == np.datetime64(DAY))
        assert table.dtype == md.FEATURE_DTYPE

    def test_missing_bar_suppresses_dependents(self):
        full = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=3), DAY)
        m0 = 200
        gappy = without_minutes(full, [m0])
        assert len(gappy.bars) == md.SESSION_MINUTES - 1
        kept = set(md.build_feature_rows(gappy)["minute"].tolist())
        lost = set(md.build_feature_rows(full)["minute"].tolist()) - kept
        assert lost == {m0, m0 + 4, m0 + 5, m0 + 6, m0 + 9}

    def test_constant_day_values(self):
        vix = 18.0
        table = md.build_feature_rows(constant_series(vix=vix))
        intraday = vix / md.VIX_INTRADAY_DENOM
        for name in ("r5", "lag_r5", "lag_r5_sq", "dvix_lag"):
            assert np.all(table[name] == 0.0)
        np.testing.assert_allclose(table["vix_lag"], intraday, rtol=1e-15)
        np.testing.assert_allclose(table["vrp_lag"], -intraday * intraday, rtol=1e-15)

    def test_alignment_against_bars(self):
        """Every stored feature recomputes from the bars at its stated lag."""
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=9), DAY)
        price = {m: p for m, p, _ in series.bars.tolist()}
        vix = {m: v / md.VIX_INTRADAY_DENOM for m, _, v in series.bars.tolist()}
        for r in md.build_feature_rows(series)[::37]:
            m = int(r["minute"])
            assert r["r5"] == pytest.approx(math.log(price[m] / price[m - 4]), abs=1e-15)
            assert r["lag_r5"] == pytest.approx(math.log(price[m - 5] / price[m - 9]), abs=1e-15)
            assert r["lag_r5_sq"] == r["lag_r5"] * r["lag_r5"]
            assert r["vix_lag"] == vix[m - 5]
            assert r["dvix_lag"] == pytest.approx(vix[m - 5] - vix[m - 6], abs=1e-18)
            r1 = math.log(price[m - 5] / price[m - 6])
            assert r["vrp_lag"] == pytest.approx(r1 * r1 - vix[m - 5] ** 2, abs=1e-15)

    def test_pure_function(self):
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=5), DAY)
        assert md.build_feature_rows(series).tobytes() == md.build_feature_rows(series).tobytes()

    @settings(deadline=None)
    @given(gappy_days())
    @example(ROUNDING_DAY)
    def test_matches_per_minute_oracle_bit_for_bit(self, series):
        table = md.build_feature_rows(series)
        rows = oracle_feature_rows(series)
        assert table["minute"].tolist() == [row["minute"] for row in rows]
        assert np.all(table["day"] == np.datetime64(series.day))
        for name in md.FEATURE_DTYPE.names[2:]:
            expected = np.array([row[name] for row in rows], dtype=float)
            assert table[name].tobytes() == expected.tobytes(), name


class TestGenerateSyntheticDay:
    def test_deterministic(self):
        params = md.SynthParams(n_days=1, seed=77)
        a = md.generate_synthetic_day(params, DAY)
        b = md.generate_synthetic_day(params, DAY)
        assert a.bars.tobytes() == b.bars.tobytes()

    def test_distinct_seeds_distinct_paths(self):
        a = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=1), DAY)
        b = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=2), DAY)
        assert a.bars.tobytes() != b.bars.tobytes()

    def test_distinct_days_distinct_paths(self):
        params = md.SynthParams(n_days=2, seed=1)
        a = md.generate_synthetic_day(params, DAY)
        b = md.generate_synthetic_day(params, DAY + dt.timedelta(days=1))
        assert a.bars.tobytes() != b.bars.tobytes()

    def test_gapless_session(self):
        series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=4), DAY)
        assert series.bars["minute"].tolist() == list(
            range(md.SESSION_START_MINUTE, md.SESSION_END_MINUTE + 1)
        )

    def test_zero_vol_constant_price(self):
        params = md.SynthParams(n_days=1, seed=4, return_vol=0.0)
        series = md.generate_synthetic_day(params, DAY)
        assert set(series.bars["spy_price"].tolist()) == {100.0}

    def test_leverage_correlation_monte_carlo(self):
        params = md.SynthParams(n_days=30, seed=123, leverage_corr=-0.4)
        rets, vix_innov = [], []
        mean_log = math.log(params.vix_mean)
        for day in md.business_days(dt.date(2012, 1, 2), 30):
            series = md.generate_synthetic_day(params, day)
            logp = np.log(series.bars["spy_price"])
            logv = np.log(series.bars["vix"])
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
        table = md.build_feature_rows(series)
        y = table["r5"]
        x = table["vix_lag"]
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
        assert a.bars.tobytes() == b.bars.tobytes()

    def test_gapless(self):
        series = md.generate_affine_signal_day(md.SynthParams(n_days=1, seed=2), DAY)
        assert len(series.bars) == md.SESSION_MINUTES


class TestBusinessDays:
    def test_skips_weekends(self):
        days = md.business_days(dt.date(2012, 3, 2), 4)  # a Friday
        assert [d.isoformat() for d in days] == [
            "2012-03-02", "2012-03-05", "2012-03-06", "2012-03-07",
        ]
