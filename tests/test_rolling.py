"""Tests for window scheduling, per-window estimation, and the store.

The schedule oracle is the dict-based scheduler that row ranges replaced.
The estimation oracle re-runs one OLS window by hand: min/max scaling,
normal equations, inverse transform, all with plain Python arithmetic.
The stacking oracle scales, fits and forecasts one window at a time,
through the per-window triples that one stack per window length replaced.
"""

import csv
import dataclasses
import datetime as dt
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from minutecast import marketdata as md
from minutecast import rolling
from minutecast.errors import ConfigError, DataError, FitError, NumericError, ParseError
from minutecast.forest import ForestConfig, rf_fit, rf_predict
from minutecast.linear import ols_fit, ols_predict
from minutecast.lstm import TrainConfig, lstm_predict, train_windows

DAY = dt.date(2021, 3, 1)


@lru_cache(maxsize=None)
def day_rows(seed: int = 3):
    series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=seed), DAY)
    rows = md.build_feature_rows(series)
    rows.flags.writeable = False  # shared by tests: copy before editing
    return rows


def day_records(rows, roster, master_seed=0):
    """run_day's block as its store rows."""
    return list(rolling.Forecasts([rolling.run_day(rows, roster, master_seed)]))


def forecasts(records):
    """Hand-built records through the validating constructor that read_store uses."""
    return rolling.Forecasts.from_columns(*zip(*records))


def drop_minutes(rows, missing):
    return rows[~np.isin(rows["minute"], list(missing))]


def minutes_between(rows, first, last):
    return rows[(rows["minute"] >= first) & (rows["minute"] <= last)]


def row_of(rows, minute):
    return int(np.flatnonzero(rows["minute"] == minute)[0])


def window_start(rows, i):
    """First row of test row i's window, by the rule schedule_day documents."""
    m = int(rows["minute"][i])
    start_minute = max(m - rolling.TRAIN_WINDOW_MINUTES, rolling.EARLIEST_FEATURE_MINUTE)
    return i - (m - start_minute)


def scheduled_minutes(rows):
    return [int(m) for m in rows["minute"][rolling.schedule_day(rows)]]


def oracle_schedule(rows):
    """The dict-based scheduler the row-range schedule replaced, kept as the oracle.

    One (test minute, window start minute) pair per schedulable minute: the
    test row and every training minute must be present.
    """
    present = {int(m) for m in rows["minute"]}
    pairs = []
    for minute in range(rolling.FIRST_PREDICTION_MINUTE, md.SESSION_END_MINUTE + 1):
        start = max(minute - rolling.TRAIN_WINDOW_MINUTES, rolling.EARLIEST_FEATURE_MINUTE)
        if minute in present and all(m in present for m in range(start, minute)):
            pairs.append((minute, start))
    return pairs


@st.composite
def thinned_days(draw):
    """A gapless day's table with scattered rows and one run of rows removed."""
    rows = day_rows(draw(st.sampled_from([3, 5])))
    missing = draw(st.sets(st.integers(19, md.SESSION_END_MINUTE), max_size=12))
    first = draw(st.integers(19, md.SESSION_END_MINUTE))
    missing |= set(range(first, first + draw(st.integers(0, 40))))
    return drop_minutes(rows, missing)


class TestScheduleDay:
    def test_gapless_day_yields_full_schedule(self):
        tests = rolling.schedule_day(day_rows())
        assert len(tests) == 340
        minutes = scheduled_minutes(day_rows())
        assert minutes[0] == 41   # 10:11
        assert minutes[-1] == 380  # 15:50
        assert minutes == list(range(41, 381))

    def test_warmup_windows_truncate_at_first_feature_minute(self):
        rows = day_rows()
        tests = rolling.schedule_day(rows)
        lengths = [i - window_start(rows, i) for i in tests]
        for i in tests[:8]:
            assert rows["minute"][window_start(rows, i)] == 19
        assert lengths[:8] == list(range(22, 30))
        for i in tests[8:]:
            assert i - window_start(rows, i) == 30
            assert rows["minute"][window_start(rows, i)] == rows["minute"][i] - 30

    def test_window_ends_the_minute_before_prediction(self):
        rows = day_rows()
        for i in rolling.schedule_day(rows)[::50]:
            assert rows["minute"][i - 1] == rows["minute"][i] - 1

    def test_every_window_is_a_contiguous_row_range(self):
        rows = drop_minutes(day_rows(), {30, 100, 101, 250})
        for i in rolling.schedule_day(rows):
            m = int(rows["minute"][i])
            start = window_start(rows, i)
            assert start >= 0
            assert rows["minute"][start:i].tolist() == list(range(m - (i - start), m))
            assert np.all(rows["day"][start:i + 1] == np.datetime64(DAY))

    @settings(deadline=None, max_examples=60)
    @given(thinned_days())
    def test_matches_dict_oracle(self, rows):
        tests = rolling.schedule_day(rows)
        got = [(int(rows["minute"][i]), int(rows["minute"][window_start(rows, i)]))
               for i in tests]
        assert got == oracle_schedule(rows)

    def test_empty_rows(self):
        assert len(rolling.schedule_day(np.zeros(0, md.FEATURE_DTYPE))) == 0

    def test_missing_midday_bar_drops_covered_tasks(self):
        rows = drop_minutes(day_rows(), {200})
        minutes = scheduled_minutes(rows)
        # minute 200 as test row, plus the 30 windows that require it
        assert len(minutes) == 340 - 31
        assert 200 not in minutes
        assert set(minutes).isdisjoint(range(201, 231))
        assert 231 in minutes

    def test_missing_first_feature_row_drops_warmups(self):
        rows = drop_minutes(day_rows(), {19})
        tests = rolling.schedule_day(rows)
        # the truncated windows and the first full window all need minute 19
        assert len(tests) == 340 - 9
        assert rows["minute"][tests[0]] == 50
        assert all(i - window_start(rows, i) == 30 for i in tests)

    def test_short_isolated_run_yields_nothing(self):
        rows = minutes_between(day_rows(), 100, 129)
        assert len(rolling.schedule_day(rows)) == 0

    def test_thirty_one_row_run_yields_one_task(self):
        rows = minutes_between(day_rows(), 100, 130)
        tests = rolling.schedule_day(rows)
        assert tests.tolist() == [30]
        assert rows["minute"][30] == 130
        assert window_start(rows, 30) == 0

    def test_rejects_unsorted_rows(self):
        rows = day_rows().copy()
        rows[[5, 6]] = rows[[6, 5]]
        with pytest.raises(DataError):
            rolling.schedule_day(rows)

    def test_rejects_mixed_days(self):
        rows = day_rows()[:41].copy()
        rows["day"][40] = np.datetime64(DAY + dt.timedelta(days=1))
        with pytest.raises(DataError):
            rolling.schedule_day(rows)


class TestModelSpec:
    def test_ids_and_keys(self):
        assert rolling.ModelSpec.naive().model_id == "naive"
        assert rolling.ModelSpec.naive().predictor_set_id == "none"
        assert rolling.ModelSpec.ols("vix").model_id == "ols-vix"
        assert rolling.ModelSpec.ols("vix").predictor_set_id == "vix"
        assert rolling.ModelSpec.lstm("agg").key == "lstm:agg"
        assert rolling.ModelSpec.rf("ar1").key == "rf:ar1"

    def test_feature_columns(self):
        assert rolling.ModelSpec.naive().feature_columns == ()
        assert rolling.ModelSpec.ols("rv").feature_columns == ("lag_r5_sq",)
        assert rolling.ModelSpec.lstm("vix").feature_columns == ("vix_lag",)
        assert rolling.ModelSpec.rf("agg").feature_columns == (
            "lag_r5", "lag_r5_sq", "vix_lag", "dvix_lag", "vrp_lag",
        )

    def test_constructor_rejects_mismatched_fields(self):
        family = rolling.ModelFamily
        rejected = [
            lambda: rolling.ModelSpec(family.NAIVE, "vix"),
            lambda: rolling.ModelSpec(family.OLS_BENCH, "agg"),
            lambda: rolling.ModelSpec(family.OLS_BENCH),
            lambda: rolling.ModelSpec(family.LSTM, "vix"),
            lambda: rolling.ModelSpec(family.RF, "agg", TrainConfig()),
            lambda: rolling.ModelSpec(family.NAIVE, config=TrainConfig()),
            lambda: rolling.ModelSpec("lstm", "vix", TrainConfig()),
            lambda: rolling.ModelSpec.lstm("nope"),
            lambda: rolling.ModelSpec.lstm("all"),
            lambda: rolling.ModelSpec.rf("rv"),
        ]
        for make in rejected:
            with pytest.raises(ConfigError):
                make()

    def test_predictor_set_coercion(self):
        # ids match case-insensitively
        assert rolling.ModelSpec.lstm("VIX") == rolling.ModelSpec.lstm("vix")
        assert rolling.ModelSpec.rf("AGG").key == "rf:agg"
        assert rolling.ModelSpec.ols("Dvix").model_id == "ols-dvix"
        with pytest.raises(ConfigError):
            rolling.ModelSpec.rf("all")


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        base = rolling.derive_seed(0, DAY, 41, "lstm:vix")
        assert base == rolling.derive_seed(0, DAY, 41, "lstm:vix")
        variants = {
            rolling.derive_seed(1, DAY, 41, "lstm:vix"),
            rolling.derive_seed(0, DAY + dt.timedelta(days=1), 41, "lstm:vix"),
            rolling.derive_seed(0, DAY, 42, "lstm:vix"),
            rolling.derive_seed(0, DAY, 41, "rf:vix"),
        }
        assert base not in variants
        assert len(variants) == 4

    def test_range(self):
        for minute in (41, 200, 380):
            seed = rolling.derive_seed(7, DAY, minute, "naive:none")
            assert 0 <= seed < 2**64


def run_window(rows, minute, spec, master_seed=0):
    """A one-window run: run_day over the window's rows and its test row alone."""
    i = row_of(rows, minute)
    records = day_records(rows[window_start(rows, i):i + 1], [spec], master_seed)
    assert records[-1].minute == minute
    return records[-1]


def manual_ols_vix_forecast(rows, minute):
    """Hand pipeline: scale by train min/max, normal equations, map back."""
    i = row_of(rows, minute)
    train = rows[window_start(rows, i):i]
    xs = train["vix_lag"].tolist()
    ys = train["r5"].tolist()
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    xs_s = [(v - lo_x) / (hi_x - lo_x) for v in xs]
    ys_s = [(v - lo_y) / (hi_y - lo_y) for v in ys]
    A = np.column_stack([np.ones(len(xs_s)), xs_s])
    beta = np.linalg.solve(A.T @ A, A.T @ np.array(ys_s))
    x_test = (float(rows["vix_lag"][i]) - lo_x) / (hi_x - lo_x)
    yhat_s = beta[0] + beta[1] * x_test
    return yhat_s * (hi_y - lo_y) + lo_y


class TestRunWindow:
    def minutes(self):
        return scheduled_minutes(day_rows())

    def test_naive_is_window_mean(self):
        rows = day_rows()
        minute = self.minutes()[100]
        i = row_of(rows, minute)
        record = run_window(rows, minute, rolling.ModelSpec.naive())
        targets = rows["r5"][window_start(rows, i):i]
        assert len(targets) == 30
        assert record.y_hat == targets.mean()
        assert record.y_naive == record.y_hat
        assert record.status == "ok"
        assert record.model == "naive"
        assert record.predictor_set == "none"
        assert record.y_true == rows["r5"][i]

    def test_naive_coherence_across_schedule(self):
        rows = day_rows()
        for minute in self.minutes()[::40]:
            record = run_window(rows, minute, rolling.ModelSpec.naive())
            i = row_of(rows, minute)
            mean = np.mean(rows["r5"][window_start(rows, i):i])
            assert record.y_naive == pytest.approx(mean, abs=1e-12)

    def test_ols_recovers_exact_linear_target(self):
        rows = day_rows().copy()
        rows["r5"] = 2.0 * rows["vix_lag"]
        record = run_window(rows, self.minutes()[50], rolling.ModelSpec.ols("vix"))
        assert record.status == "ok"
        assert record.y_hat == pytest.approx(record.y_true, abs=1e-8)

    def test_ols_matches_hand_pipeline(self):
        rows = day_rows()
        for minute in (self.minutes()[0], self.minutes()[120], self.minutes()[339]):
            record = run_window(rows, minute, rolling.ModelSpec.ols("vix"))
            assert record.status == "ok"
            assert record.y_hat == pytest.approx(manual_ols_vix_forecast(rows, minute), abs=1e-10)

    def test_scaler_ignores_test_row(self):
        # a test row five spans above the training range must not shift the
        # forecast: training statistics fully determine the fit, the test row
        # only gets mapped through it
        minute = self.minutes()[60]
        record = run_window(day_rows(), minute, rolling.ModelSpec.ols("vix"))
        wild = day_rows().copy()
        i = row_of(wild, minute)
        train = wild["vix_lag"][window_start(wild, i):i]
        wild["vix_lag"][i] = train.max() + 5 * (train.max() - train.min())
        wild_record = run_window(wild, minute, rolling.ModelSpec.ols("vix"))
        assert wild_record.status == "ok"
        # same fitted line, evaluated at a different point: recompute by hand
        assert wild_record.y_hat == pytest.approx(manual_ols_vix_forecast(wild, minute), abs=1e-10)
        assert wild_record.y_hat != record.y_hat

    @pytest.mark.parametrize("side", [-1, 1])
    def test_far_extrapolation_falls_back(self, side):
        minute = self.minutes()[60]
        wild = day_rows().copy()
        i = row_of(wild, minute)
        train = wild["vix_lag"][window_start(wild, i):i].copy()
        span = train.max() - train.min()
        edge = train.max() if side > 0 else train.min()
        for spans, status in ((0.99, "ok"), (1.01, "fallback"), (100.0, "fallback")):
            wild["vix_lag"][i] = edge + side * spans * rolling.MAX_EXTRAPOLATION * span
            record = run_window(wild, minute, rolling.ModelSpec.ols("vix"))
            assert record.status == status, spans
            if status == "fallback":
                assert record.y_hat == record.y_naive

    @pytest.mark.parametrize("flat_target", [False, True], ids=["predictor", "and-target"])
    def test_constant_predictor_falls_back(self, flat_target):
        # with the target constant too, the target inverts to its constant
        # whatever the forecast, so only the NaN forecast marks the fallback
        minute = self.minutes()[30]
        flat = day_rows().copy()
        i = row_of(flat, minute)
        flat["vix_lag"][window_start(flat, i):i + 1] = 17.0
        if flat_target:
            flat["r5"][window_start(flat, i):i] = 0.001
        record = run_window(flat, minute, rolling.ModelSpec.ols("vix"))
        assert record.status == "fallback"
        assert record.y_hat == record.y_naive

    def test_nan_predictor_skips(self):
        minute = self.minutes()[30]
        bad = day_rows().copy()
        bad["lag_r5"][window_start(bad, row_of(bad, minute)) + 3] = math.nan
        record = run_window(bad, minute, rolling.ModelSpec.ols("ar1"))
        assert record.status == "skipped"
        assert math.isnan(record.y_hat)
        assert math.isfinite(record.y_naive)

    def test_nan_target_skips_with_nan_naive(self):
        minute = self.minutes()[30]
        bad = day_rows().copy()
        bad["r5"][window_start(bad, row_of(bad, minute))] = math.nan
        record = run_window(bad, minute, rolling.ModelSpec.naive())
        assert record.status == "skipped"
        assert math.isnan(record.y_naive)

    def test_lstm_window_runs_and_is_deterministic(self):
        minute = self.minutes()[9]
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=4, epochs=10))
        a = run_window(day_rows(), minute, spec, master_seed=1)
        b = run_window(day_rows(), minute, spec, master_seed=1)
        assert a == b
        assert a.status == "ok"
        assert math.isfinite(a.y_hat)
        c = run_window(day_rows(), minute, spec, master_seed=2)
        assert c.y_hat != a.y_hat

    def test_rf_window_runs_and_is_deterministic(self):
        rows = day_rows()
        minute = self.minutes()[9]
        spec = rolling.ModelSpec.rf("agg", ForestConfig(n_trees=5))
        a = run_window(rows, minute, spec, master_seed=1)
        assert a == run_window(rows, minute, spec, master_seed=1)
        assert a.status == "ok"
        i = row_of(rows, minute)
        targets = rows["r5"][window_start(rows, i):i]
        assert targets.min() <= a.y_hat <= targets.max()


class TestNoLookahead:
    """A forecast never reads its own target or anything after it.

    Overwriting the test row's r5 and every feature column of every later
    row, with finite values so that each LSTM batch keeps its windows, may
    change only that record's y_true.
    """

    @pytest.mark.parametrize("spec", [
        rolling.ModelSpec.naive(),
        rolling.ModelSpec.ols("vix"),
        rolling.ModelSpec.ols("ar1"),
        rolling.ModelSpec.lstm("agg", TrainConfig(hidden_dim=3, epochs=4)),
        rolling.ModelSpec.rf("agg", ForestConfig(n_trees=4)),
    ], ids=lambda spec: spec.key)
    @pytest.mark.parametrize("minute", [45, 60])
    def test_forecast_ignores_target_and_later_rows(self, spec, minute):
        rows = minutes_between(day_rows(), 19, 70)
        before = {r.minute: r for r in day_records(rows, [spec], master_seed=2)}
        i = row_of(rows, minute)
        moved = rows.copy()
        noise = np.random.default_rng(minute).normal(scale=1e-3, size=(len(rows), 7))
        moved["r5"][i] += 1.0
        for k, name in enumerate(md.FEATURE_DTYPE.names[2:]):
            moved[name][i + 1:] = noise[i + 1:, k]
        after = {r.minute: r for r in day_records(moved, [spec], master_seed=2)}
        assert after[minute].y_true != before[minute].y_true
        for field in ("y_hat", "y_naive", "status"):
            assert getattr(after[minute], field) == getattr(before[minute], field)


class TestRunDay:
    def test_counts_and_grouping(self):
        roster = [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("vix"),
                  rolling.ModelSpec.ols("ar1")]
        records = day_records(day_rows(), roster)
        assert len(records) == 3 * 340
        per_model = {}
        for r in records:
            per_model.setdefault(r.model, []).append(r)
        assert {m: len(v) for m, v in per_model.items()} == {
            "naive": 340, "ols-vix": 340, "ols-ar1": 340,
        }
        keys = [(r.minute, r.model, r.predictor_set) for r in records]
        assert keys == sorted(keys)

    def test_empty_roster(self):
        assert day_records(day_rows(), []) == []

    def test_duplicate_roster_rejected(self):
        with pytest.raises(ConfigError):
            rolling.run_day(day_rows(), [rolling.ModelSpec.naive(), rolling.ModelSpec.naive()])

    def test_matches_run_window_for_direct_models(self):
        roster = [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("vrp")]
        records = day_records(day_rows(), roster)
        for record in records[::97]:
            direct = run_window(
                day_rows(), record.minute,
                roster[0] if record.model == "naive" else roster[1],
            )
            assert record == direct

    def test_lstm_batching_matches_single_window_runs(self):
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=4, epochs=8))
        records = day_records(day_rows(), [spec], master_seed=3)
        assert len(records) == 340
        assert all(r.status == "ok" for r in records)
        # no window's arithmetic depends on the others in its batch, so a
        # one-window run agrees bit for bit, warm-ups included
        for record in records[:8] + records[8::48]:
            direct = run_window(day_rows(), record.minute, spec, master_seed=3)
            assert record == direct

    def test_lstm_diverged_batch_falls_back_per_window(self, monkeypatch):
        # a huge init overflows every window; each is masked inside its
        # batch, nothing is retrained alone, and each falls back to the
        # window mean
        rows = minutes_between(day_rows(), 19, 70)
        naive = rolling.ModelSpec.naive()
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(init_scale=1e156, epochs=3))
        solo = []
        lstm_train = rolling.lstm_train

        def counted(X, y, config):
            solo.append(config.seed)
            return lstm_train(X, y, config)

        monkeypatch.setattr(rolling, "lstm_train", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            records = day_records(rows, [naive, spec])
        lstm_records = [r for r in records if r.model == "lstm"]
        assert len(lstm_records) == 30
        assert solo == []
        assert all(r.status == "fallback" for r in lstm_records)
        assert all(r.y_hat == r.y_naive for r in lstm_records)
        monkeypatch.setattr(rolling, "lstm_train", lstm_train)
        assert [r for r in records if r.model == "naive"] == day_records(rows, [naive])

    def test_lstm_day_is_deterministic(self):
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=4, epochs=5))
        a = day_records(day_rows(), [spec], master_seed=9)
        b = day_records(day_rows(), [spec], master_seed=9)
        assert a == b

    def test_lstm_long_sequences_fall_back_on_short_warmups(self):
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=2, epochs=2,
                                                         sequence_length=25))
        records = day_records(day_rows(), [spec])
        by_minute = {r.minute: r for r in records}
        # windows with no more than 25 rows have every subsequence masked
        for minute in range(41, 45):
            assert by_minute[minute].status == "fallback"
            assert by_minute[minute].y_hat == by_minute[minute].y_naive
        assert by_minute[45].status == "ok"
        assert by_minute[60].status == "ok"

    def test_rf_day_subset(self):
        rows = minutes_between(day_rows(), 19, 120)
        spec = rolling.ModelSpec.rf("vix", ForestConfig(n_trees=3))
        records = day_records(rows, [spec], master_seed=4)
        assert len(records) == 120 - 41 + 1
        assert all(r.status == "ok" for r in records)
        assert records == day_records(rows, [spec], master_seed=4)

    def test_model_records_do_not_depend_on_roster(self):
        # every model reads its own columns of one stack scaled for the whole
        # roster; one VIX bar at 1e200 makes vrp_lag -inf, so vrp and agg
        # windows that touch it are skipped while ar1 windows are scored
        bars = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=3), DAY).bars.copy()
        bars["vix"][bars["minute"] == 80] = 1e200
        rows = minutes_between(md.build_feature_rows(md.DaySeries(DAY, bars)), 19, 130)
        roster = [rolling.ModelSpec.naive()] + [
            rolling.ModelSpec.ols(which) for which in rolling.OLS_BENCHMARKS
        ] + [
            rolling.ModelSpec.lstm("agg", TrainConfig(hidden_dim=2, epochs=2)),
            rolling.ModelSpec.rf("agg", ForestConfig(n_trees=3)),
        ]

        def text(records):  # repr, so that NaN matches NaN
            return [tuple(map(repr, r)) for r in records]

        full = day_records(rows, roster, master_seed=6)
        assert len(full) == len(roster) * (130 - 41 + 1)
        for spec in roster:
            alone = day_records(rows, [spec], master_seed=6)
            assert text(alone) == text(
                r for r in full
                if r.model == spec.model_id and r.predictor_set == spec.predictor_set_id
            ), spec.key
        statuses = {}
        for r in full:
            statuses.setdefault(r.model, set()).add(r.status)
        assert statuses["ols-ar1"] == {"ok"}
        for model in ("ols-vrp", "lstm", "rf"):
            assert "skipped" in statuses[model], model


class TestNaiveAndSeeds:
    """The naive means computed once per day and the seeds drawn only where used."""

    @pytest.mark.parametrize("seed", [3, 5])
    def test_naive_is_each_window_mean_bit_for_bit(self, seed):
        rows = drop_minutes(day_rows(seed), {60, 200, 201})
        # targets of mixed signs and scales, which a change of summation
        # order would round differently
        rng = np.random.default_rng(seed)
        rows["r5"] = rng.normal(size=len(rows)) * 10.0 ** rng.integers(-6, 0, len(rows))
        records = day_records(rows, [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("vix")])
        naive = [r for r in records if r.model == "naive"]
        tests = rolling.schedule_day(rows)
        assert [r.minute for r in naive] == rows["minute"][tests].tolist()
        lengths = set()
        for record, i in zip(naive, tests.tolist()):
            start = window_start(rows, i)
            lengths.add(i - start)
            assert repr(record.y_naive) == repr(float(rows["r5"][start:i].mean()))
        assert lengths == set(range(22, 31))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_naive_is_nan_on_a_non_finite_target(self, bad):
        rows = day_rows().copy()
        i = row_of(rows, 100)
        rows["r5"][i] = bad
        records = {r.minute: r for r in day_records(rows, [rolling.ModelSpec.naive()])}
        # minute 100 is the test target of its own window and a training
        # target of the next 30; minute 131 is clear of it
        for minute in range(100, 131):
            assert math.isnan(records[minute].y_naive), minute
            assert records[minute].status == "skipped"
        assert math.isnan(records[100].y_hat)
        for minute in (99, 131):
            i = row_of(rows, minute)
            assert records[minute].y_naive == rows["r5"][i - 30:i].mean()
            assert records[minute].status == "ok"

    def count_seeds(self, monkeypatch):
        calls = []
        derive_seed = rolling.derive_seed

        def counted(master_seed, day, minute, model_key):
            calls.append((minute, model_key))
            return derive_seed(master_seed, day, minute, model_key)

        monkeypatch.setattr(rolling, "derive_seed", counted)
        return calls

    def test_no_seed_for_naive_and_ols(self, monkeypatch):
        calls = self.count_seeds(monkeypatch)
        roster = [rolling.ModelSpec.naive()] + [
            rolling.ModelSpec.ols(which) for which in rolling.OLS_BENCHMARKS
        ]
        records = day_records(minutes_between(day_rows(), 19, 90), roster)
        assert any(r.status == "ok" and r.model.startswith("ols") for r in records)
        assert calls == []

    def test_one_seed_per_fitted_rf_window(self, monkeypatch):
        calls = self.count_seeds(monkeypatch)
        rows = minutes_between(day_rows(), 19, 90).copy()
        # a NaN predictor skips the windows that touch it, before any fit
        rows["vix_lag"][row_of(rows, 80)] = math.nan
        spec = rolling.ModelSpec.rf("vix", ForestConfig(n_trees=2))
        records = day_records(rows, [rolling.ModelSpec.naive(), spec], master_seed=2)
        fitted = [r.minute for r in records if r.model == "rf" and r.status != "skipped"]
        assert 0 < len(fitted) < 90 - 41 + 1
        assert calls == [(minute, spec.key) for minute in fitted]


def oracle_prepare(window, test, spec):
    """The per-window preparation that stacked scaling replaced, kept as the oracle.

    Returns ((y_hat, y_naive, status), None) when no fit is needed or
    possible, else (None, (y_naive, lo, hi, x_train, y_train, x_test)). The
    scaler is fitted on this window alone, and a span or scaled value that
    floats cannot hold falls back, as the old NumericError did, as does a
    test predictor more than MAX_EXTRAPOLATION spans outside [0, 1].
    """
    k = window.shape[1] - 1
    train_y = window[:, k]
    if not np.all(np.isfinite(train_y)) or not math.isfinite(test[k]):
        return (math.nan, math.nan, "skipped"), None
    y_naive = float(train_y.mean())
    if spec.family is rolling.ModelFamily.NAIVE:
        return (y_naive, y_naive, "ok"), None
    if not np.all(np.isfinite(window[:, :k])) or not np.all(np.isfinite(test[:k])):
        return (math.nan, y_naive, "skipped"), None
    mins, maxs = window.min(axis=0), window.max(axis=0)
    with np.errstate(over="ignore"):
        spans = maxs - mins
    if not np.all(np.isfinite(spans)):
        return (y_naive, y_naive, "fallback"), None
    safe = np.where(spans == 0.0, 1.0, spans)
    padded = np.append(test[:k], 0.0)[None, :]  # dummy slot for the target column
    scaled = []
    for data in (window, padded):
        with np.errstate(over="ignore"):
            out = (data - mins) / safe
        out[:, spans == 0.0] = 0.0
        if not np.all(np.isfinite(out)):
            return (y_naive, y_naive, "fallback"), None
        scaled.append(out)
    x_test = scaled[1][0, :k]
    if np.any(x_test < -rolling.MAX_EXTRAPOLATION) or np.any(x_test > 1 + rolling.MAX_EXTRAPOLATION):
        return (y_naive, y_naive, "fallback"), None
    lo, hi = float(mins[k]), float(maxs[k])
    return None, (y_naive, lo, hi, scaled[0][:, :k], scaled[0][:, k], x_test)


def oracle_finish(prep, yhat_scaled):
    y_naive, lo, hi = prep[:3]
    if yhat_scaled is not None:
        y_hat = lo if hi == lo else float(yhat_scaled) * (hi - lo) + lo
        if math.isfinite(y_hat):
            return y_hat, y_naive, "ok"
    return y_naive, y_naive, "fallback"


def oracle_window_forecasts(spec, windows, seeds):
    """OLS or RF window by window, as run_day fitted them before stacks.

    Each window is an (x_train, y_train, x_test) triple of scaled arrays.
    Returns None where a fit fails; OLS is the one-window ols_fit, whose
    NaN forecast counts as a failed fit.
    """
    forecasts = []
    for (x_train, y_train, x_test), seed in zip(windows, seeds):
        try:
            if spec.family is rolling.ModelFamily.OLS_BENCH:
                forecast = float(ols_predict(ols_fit(x_train, y_train), x_test))
                forecast = None if math.isnan(forecast) else forecast
            else:
                config = dataclasses.replace(spec.config, seed=seed)
                forecast = rf_predict(rf_fit(x_train, y_train, config), x_test)
        except (FitError, NumericError):
            forecast = None
        forecasts.append(forecast)
    return forecasts


def oracle_lstm_forecasts(spec, windows, seeds):
    """LSTM: each triple padded to 30 rows and trained alone, with its own mask.

    A window's missing leading rows repeat its first row, and the
    subsequences that start among them are masked, as the day's batch
    packs them. None where a window has no more rows than the sequence
    length, its training diverged, or its forecast is not finite.
    """
    config = spec.config
    length = config.sequence_length
    rows = rolling.TRAIN_WINDOW_MINUTES
    forecasts = [None] * len(windows)
    for i, ((x_train, y_train, x_test), seed) in enumerate(zip(windows, seeds)):
        n = len(x_train)
        if n <= length:
            continue
        pad = np.zeros(rows - n, dtype=int)
        X = np.concatenate([x_train[pad], x_train])
        y = np.concatenate([y_train[pad], y_train])
        mask = np.arange(rows - length + 1) >= rows - n
        params = train_windows(
            sliding_window_view(X, length, axis=0).transpose(0, 2, 1)[None],
            sliding_window_view(y, length)[None],
            config,
            [seed],
            mask=mask[None],
        )[0]
        if params is None:
            continue
        sequence = np.vstack([x_train[n - length + 1:], x_test])
        try:
            forecasts[i] = lstm_predict(params, sequence)
        except NumericError:
            pass
    return forecasts


def oracle_run(rows, spec, master_seed):
    """(minute, status, repr(y_hat), repr(y_naive)) per window, one window at a time."""
    tests = rolling.schedule_day(rows)
    minutes = rows["minute"]
    data = np.column_stack([rows[c] for c in spec.feature_columns + ("r5",)])
    starts = tests - rolling._window_length(minutes[tests])
    prepared = [oracle_prepare(data[s:i], data[i], spec) for s, i in zip(starts, tests)]
    fitted = [(i, prep) for i, (_, prep) in zip(tests, prepared) if prep is not None]
    forecast = (oracle_lstm_forecasts if spec.family is rolling.ModelFamily.LSTM
                else oracle_window_forecasts)
    forecasts = iter(forecast(
        spec,
        [prep[3:] for _, prep in fitted],
        [rolling.derive_seed(master_seed, DAY, int(minutes[i]), spec.key) for i, _ in fitted],
    ))
    out = []
    for i, (outcome, prep) in zip(tests, prepared):
        y_hat, y_naive, status = outcome if prep is None else oracle_finish(prep, next(forecasts))
        out.append((int(minutes[i]), status, repr(float(y_hat)), repr(float(y_naive))))
    return out


ORACLE_SPECS = [
    rolling.ModelSpec.naive(),
    rolling.ModelSpec.ols("vix"),
    rolling.ModelSpec.rf("agg", ForestConfig(n_trees=3)),
    rolling.ModelSpec.lstm("agg", TrainConfig(hidden_dim=2, epochs=2)),
]
ORACLE_COLUMNS = sorted({c for spec in ORACLE_SPECS for c in spec.feature_columns} | {"r5"})


@st.composite
def perturbed_days(draw):
    """The first 30-100 minutes of a gapped day, with extreme and constant stretches.

    Each perturbation hits one column the oracle specs read: a NaN, inf or
    +/-1e308 entry, a pair +/-1e308 close enough to share a window, a
    constant stretch, or a stretch of zeros around one subnormal value,
    against which the next normal value overflows.
    """
    last = draw(st.integers(50, 120))
    rows = minutes_between(day_rows(draw(st.sampled_from([3, 5]))), 19, last)
    rows = drop_minutes(rows, draw(st.sets(st.integers(19, last), max_size=5))).copy()
    n = len(rows)
    for _ in range(draw(st.integers(0, 4))):
        column = rows[draw(st.sampled_from(ORACLE_COLUMNS))]
        first = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["value", "pair", "constant", "subnormal"]))
        if kind == "value":
            column[first] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]))
        elif kind == "pair":
            column[first] = 1e308
            column[min(first + draw(st.integers(1, 29)), n - 1)] = -1e308
        elif kind == "constant":
            column[first:first + draw(st.integers(2, 45))] = column[first]
        else:
            stop = first + draw(st.integers(25, 45))
            column[first:stop] = 0.0
            column[min(first + draw(st.integers(0, 24)), n - 1)] = draw(
                st.sampled_from([5e-324, 1e-311])
            )
    return rows


class TestStackedScalingMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(perturbed_days(), st.integers(0, 3))
    def test_records_match_per_window_oracle(self, rows, master_seed):
        for spec in ORACLE_SPECS:
            with np.errstate(all="ignore"):
                expected = oracle_run(rows, spec, master_seed)
                records = day_records(rows, [spec], master_seed)
            got = [(r.minute, r.status, repr(r.y_hat), repr(r.y_naive)) for r in records]
            assert got == expected, spec.key


def sample_days(n: int, seed: int = 11):
    params = md.SynthParams(n_days=n, seed=seed)
    return [
        md.generate_synthetic_day(params, day)
        for day in md.business_days(dt.date(2021, 6, 1), n)
    ]


class TestRunSample:
    def test_counts_and_order(self):
        days = sample_days(3)
        roster = [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("vix")]
        records = rolling.run_sample(days, roster)
        assert len(records) == 3 * 2 * 340
        keys = [r[:4] for r in records]
        assert keys == sorted(keys)
        assert len({r.day for r in records}) == 3

    def test_worker_count_does_not_change_output(self):
        days = sample_days(3, seed=13)
        roster = [
            rolling.ModelSpec.naive(),
            rolling.ModelSpec.ols("dvix"),
            rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=3, epochs=3)),
        ]
        serial = rolling.run_sample(days, roster, master_seed=5, workers=1)
        parallel = rolling.run_sample(days, roster, master_seed=5, workers=3)
        assert list(serial) == list(parallel)

    def test_zero_days(self):
        forecasts = rolling.run_sample([], [rolling.ModelSpec.naive()])
        assert len(forecasts) == 0 and list(forecasts) == []

    def test_overflowing_test_row_falls_back(self):
        # VIX is zero up to minute 94 apart from one tiny bar at 80, then back
        # at its usual level: the window predicting minute 100 trains on a
        # vix_lag span of ~1.7e-311 and tests on ~0.03, whose scaled value is
        # not a finite float
        day = sample_days(1)[0]
        bars = day.bars.copy()
        bars["vix"][bars["minute"] <= 94] = 0.0
        bars["vix"][bars["minute"] == 80] = 1e-308
        day = md.DaySeries(day.day, bars)
        roster = [
            rolling.ModelSpec.naive(),
            rolling.ModelSpec.ols("vix"),
            rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=2, epochs=2)),
            rolling.ModelSpec.rf("vix", ForestConfig(n_trees=2)),
        ]
        records = rolling.run_sample([day], roster)
        assert len(records) == 340 * len(roster)
        at_100 = {r.model: r for r in records if r.minute == 100}
        assert at_100["naive"].status == "ok"
        for model in ("ols-vix", "lstm", "rf"):
            assert at_100[model].status == "fallback"
            assert at_100[model].y_hat == at_100[model].y_naive
        assert all(
            r.status == "ok" for r in records
            if r.minute in (99, 101) and r.model == "rf"
        )

    def test_rows_are_store_order_with_known_statuses(self):
        # the benchmark's tracer counts records by iterating run_sample's
        # result and reading each row's status
        days = sample_days(2, seed=23)
        roster = [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("vix"),
                  rolling.ModelSpec.ols("ar1")]
        result = rolling.run_sample(days, roster)
        rows = list(result)
        assert len(rows) == len(result) == sum(block.y_hat.size for block in result.blocks)
        assert all(type(r) is rolling.PredictionRecord for r in rows)
        keys = [r[:4] for r in rows]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert {r.status for r in rows} <= {"ok", "fallback", "skipped"}
        assert sum(r.status == "ok" for r in rows) > 0
        for r in rows[::151]:
            block = result.blocks[[b.day for b in result.blocks].index(r.day)]
            w = block.minutes.tolist().index(r.minute)
            j = block.models.index((r.model, r.predictor_set))
            assert (r.y_true, r.y_hat, r.y_naive) == (
                block.y_true[w], block.y_hat[j, w], block.y_naive[w]
            )

    def test_repeated_date_rejected(self):
        day = sample_days(1)[0]
        with pytest.raises(DataError, match="share the date"):
            rolling.run_sample([day, day], [rolling.ModelSpec.naive()])

    def test_invalid_workers(self):
        with pytest.raises(ConfigError):
            rolling.run_sample(sample_days(1), [rolling.ModelSpec.naive()], workers=0)

    def test_master_seed_moves_seeded_models_only(self):
        days = sample_days(1, seed=17)
        roster = [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("vix"),
                  rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=3, epochs=4))]
        a = rolling.run_sample(days, roster, master_seed=0)
        b = rolling.run_sample(days, roster, master_seed=1)
        for ra, rb in zip(a, b):
            assert ra[:4] == rb[:4]
            if ra.model in ("naive", "ols-vix"):
                assert ra == rb
        lstm_pairs = [(ra, rb) for ra, rb in zip(a, b) if ra.model == "lstm"]
        assert any(ra.y_hat != rb.y_hat for ra, rb in lstm_pairs)


class TestStore:
    def records(self):
        roster = [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("rv")]
        return rolling.run_sample(sample_days(2, seed=19), roster)

    def test_round_trip_is_exact(self, tmp_path):
        records = self.records()
        path = tmp_path / "store.csv"
        rolling.write_store(records, path)
        assert list(rolling.read_store(path)) == list(records)

    def test_format(self, tmp_path):
        records = self.records()
        path = tmp_path / "store.csv"
        rolling.write_store(records, path)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "date,minute,model,predictor_set,y_true,y_hat,y_naive,status"
        assert lines[-1] == ""  # single trailing newline
        assert len(lines) == len(records) + 2
        assert "\r" not in text
        first = lines[1].split(",")
        record = next(iter(records))
        assert first[0] == record.day.isoformat()
        assert first[4] == repr(float(record.y_true))

    def test_writer_sorts_shuffled_input(self, tmp_path):
        records = self.records()
        shuffled = list(records)
        np.random.default_rng(0).shuffle(shuffled)
        path = tmp_path / "store.csv"
        rolling.write_store(forecasts(shuffled), path)
        assert list(rolling.read_store(path)) == list(records)

    def test_nan_round_trip(self, tmp_path):
        record = rolling.PredictionRecord(
            day=DAY, minute=41, model="ols-ar1", predictor_set="ar1",
            y_true=0.5, y_hat=math.nan, y_naive=math.nan, status="skipped",
        )
        path = tmp_path / "store.csv"
        rolling.write_store(forecasts([record]), path)
        back = next(iter(rolling.read_store(path)))
        assert math.isnan(back.y_hat) and math.isnan(back.y_naive)
        assert back.y_true == 0.5
        assert back.status == "skipped"

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("date,minute\n")
        with pytest.raises(ParseError):
            rolling.read_store(path)

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "store.csv"
        rolling.write_store(rolling.Forecasts(), path)
        with open(path, "a") as handle:
            handle.write("2021-03-01,41,naive,none,0.1\n")
        with pytest.raises(ParseError):
            rolling.read_store(path)

    def test_read_rejects_bad_status_and_floats(self, tmp_path):
        path = tmp_path / "store.csv"
        rolling.write_store(rolling.Forecasts(), path)
        with open(path, "a") as handle:
            handle.write("2021-03-01,41,naive,none,0.1,0.1,0.1,great\n")
        with pytest.raises(ParseError):
            rolling.read_store(path)
        rolling.write_store(rolling.Forecasts(), path)
        with open(path, "a") as handle:
            handle.write("2021-03-01,41,naive,none,abc,0.1,0.1,ok\n")
        with pytest.raises(ParseError):
            rolling.read_store(path)

    def store_lines(self, tmp_path):
        path = tmp_path / "store.csv"
        rolling.write_store(self.records(), path)
        return path, path.read_text().splitlines()

    def test_read_rejects_repeated_row(self, tmp_path):
        path, lines = self.store_lines(tmp_path)
        path.write_text("\n".join(lines + lines[-3:]) + "\n")
        with pytest.raises(ParseError, match=f"line {len(lines) + 1}: repeats"):
            rolling.read_store(path)
        # a repeat anywhere, not only next to the row it repeats
        path.write_text("\n".join(lines[:5] + [lines[1]] + lines[5:]) + "\n")
        with pytest.raises(ParseError, match="line 6: repeats"):
            rolling.read_store(path)

    def test_read_rejects_missing_row(self, tmp_path):
        path, lines = self.store_lines(tmp_path)
        date, minute, model, predictor_set = lines[7].split(",")[:4]
        path.write_text("\n".join(lines[:7] + lines[8:]) + "\n")
        with pytest.raises(ParseError, match=(
            f"{date}: no row for minute {minute} of model '{model}', "
            f"predictor_set '{predictor_set}'"
        )):
            rolling.read_store(path)

    @pytest.mark.parametrize("column", [4, 6])
    def test_read_rejects_models_that_disagree_at_a_minute(self, tmp_path, column):
        path, lines = self.store_lines(tmp_path)
        fields = lines[4].split(",")
        fields[column] = repr(float(fields[column]) + 1e-9)
        lines[4] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line (4|5): y_true or y_naive differs"):
            rolling.read_store(path)

    def test_read_rejects_quoted_field(self, tmp_path):
        path, lines = self.store_lines(tmp_path)
        lines[3] = lines[3].replace(",naive,", ',"naive",')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 4: store fields are never quoted"):
            rolling.read_store(path)

    def test_read_errors_name_their_line(self, tmp_path):
        path, lines = self.store_lines(tmp_path)
        for column, text, message in [
            (0, "2021-02-30", "line 9: day is out of range"),
            (1, "4l", "line 9: invalid literal for int"),
            (5, "abc", "line 9: could not convert string to float: 'abc'"),
            (7, "great", "line 9: unknown record status: 'great'"),
        ]:
            fields = lines[8].split(",")
            fields[column] = text
            path.write_text("\n".join(lines[:8] + [",".join(fields)] + lines[9:]) + "\n")
            with pytest.raises(ParseError, match=message):
                rolling.read_store(path)
        path.write_text("\n".join(lines[:8] + [""] + lines[8:]) + "\n")
        with pytest.raises(ParseError, match="line 9: expected 8 fields, got 0"):
            rolling.read_store(path)

    @pytest.mark.parametrize("bad", ["ols,vix", 'ols"vix', "ols\nvix", "ols\rvix"])
    @pytest.mark.parametrize("field", ["model", "predictor_set"])
    def test_writer_rejects_ids_csv_would_quote(self, tmp_path, field, bad):
        record = next(iter(self.records()))._replace(**{field: bad})
        path = tmp_path / "store.csv"
        with pytest.raises(ConfigError):
            rolling.write_store(forecasts([record]), path)
        assert not path.exists()

    def test_writer_matches_csv_module(self, tmp_path):
        # every id a ModelSpec can produce, with floats csv might treat specially
        specs = [rolling.ModelSpec.naive()] + [
            rolling.ModelSpec.ols(which) for which in rolling.OLS_BENCHMARKS
        ] + [
            make(which) for make in (rolling.ModelSpec.lstm, rolling.ModelSpec.rf)
            for which in rolling.PREDICTOR_SETS
        ]
        values = [0.5, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, -1.25e17]
        records = [
            rolling.PredictionRecord(
                DAY + dt.timedelta(days=d), 41 + m, spec.model_id, spec.predictor_set_id,
                values[m % 8], values[(m + 3) % 8], np.float64(values[(m + 5) % 8]),
                ("ok", "fallback", "skipped")[m % 3],
            )
            for d in range(2) for m in range(10) for spec in specs
        ]
        path = tmp_path / "store.csv"
        rolling.write_store(forecasts(records), path)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(rolling.STORE_COLUMNS)
            for r in sorted(records, key=lambda r: r[:4]):
                writer.writerow([
                    r.day.isoformat(), r.minute, r.model, r.predictor_set, repr(float(r.y_true)),
                    repr(float(r.y_hat)), repr(float(r.y_naive)), r.status,
                ])
        assert path.read_bytes() == expected.read_bytes()

    def test_status_validation_on_record(self):
        record = rolling.PredictionRecord(
            day=DAY, minute=41, model="naive", predictor_set="none",
            y_true=0.0, y_hat=0.0, y_naive=0.0, status="maybe",
        )
        with pytest.raises(ParseError, match="line 1: unknown record status: 'maybe'"):
            forecasts([record])
