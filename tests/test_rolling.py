"""Tests for window scheduling, per-window estimation, and the store.

The schedule oracle is the dict-based scheduler that row ranges replaced.
The estimation oracle re-runs one OLS window by hand: min/max scaling,
normal equations, inverse transform, all with plain Python arithmetic.
"""

import dataclasses
import datetime as dt
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minutecast import marketdata as md
from minutecast import rolling
from minutecast.errors import ConfigError, DataError, ParseError
from minutecast.forest import ForestConfig
from minutecast.lstm import TrainConfig

DAY = dt.date(2021, 3, 1)


@lru_cache(maxsize=None)
def day_rows(seed: int = 3):
    series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=seed), DAY)
    rows = md.build_feature_rows(series)
    rows.flags.writeable = False  # shared by tests: copy before editing
    return rows


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
        with pytest.raises(ConfigError):
            rolling.ModelSpec(family=rolling.ModelFamily.NAIVE,
                              predictor_set=rolling.PredictorSet.VIX)
        with pytest.raises(ConfigError):
            rolling.ModelSpec(family=rolling.ModelFamily.OLS_BENCH)
        with pytest.raises(ConfigError):
            rolling.ModelSpec(family=rolling.ModelFamily.LSTM,
                              predictor_set=rolling.PredictorSet.VIX)
        with pytest.raises(ConfigError):
            rolling.ModelSpec(family=rolling.ModelFamily.NAIVE, train_config=TrainConfig())
        with pytest.raises(ConfigError):
            rolling.ModelSpec.lstm("nope")

    def test_predictor_set_coercion(self):
        assert rolling.PredictorSet.coerce("VIX") is rolling.PredictorSet.VIX
        assert rolling.PredictorSet.coerce(rolling.PredictorSet.AGG) is rolling.PredictorSet.AGG
        with pytest.raises(ConfigError):
            rolling.PredictorSet.coerce("all")


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
    records = rolling.run_day(rows[window_start(rows, i):i + 1], [spec], master_seed)
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
        # an extreme test row must not shift the forecast: training statistics
        # fully determine the fit, the test row only gets mapped through it
        minute = self.minutes()[60]
        record = run_window(day_rows(), minute, rolling.ModelSpec.ols("vix"))
        wild = day_rows().copy()
        wild["vix_lag"][row_of(wild, minute)] *= 100
        wild_record = run_window(wild, minute, rolling.ModelSpec.ols("vix"))
        # same fitted line, evaluated at a different point: recompute by hand
        assert wild_record.y_hat == pytest.approx(manual_ols_vix_forecast(wild, minute), abs=1e-10)
        assert wild_record.y_hat != record.y_hat

    def test_constant_predictor_falls_back(self):
        minute = self.minutes()[30]
        flat = day_rows().copy()
        i = row_of(flat, minute)
        flat["vix_lag"][window_start(flat, i):i + 1] = 17.0
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
        before = {r.minute: r for r in rolling.run_day(rows, [spec], master_seed=2)}
        i = row_of(rows, minute)
        moved = rows.copy()
        noise = np.random.default_rng(minute).normal(scale=1e-3, size=(len(rows), 7))
        moved["r5"][i] += 1.0
        for k, name in enumerate(md.FEATURE_DTYPE.names[2:]):
            moved[name][i + 1:] = noise[i + 1:, k]
        after = {r.minute: r for r in rolling.run_day(moved, [spec], master_seed=2)}
        assert after[minute].y_true != before[minute].y_true
        for field in ("y_hat", "y_naive", "status"):
            assert getattr(after[minute], field) == getattr(before[minute], field)


class TestRunDay:
    def test_counts_and_grouping(self):
        roster = [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("vix"),
                  rolling.ModelSpec.ols("ar1")]
        records = rolling.run_day(day_rows(), roster)
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
        assert rolling.run_day(day_rows(), []) == []

    def test_duplicate_roster_rejected(self):
        with pytest.raises(ConfigError):
            rolling.run_day(day_rows(), [rolling.ModelSpec.naive(), rolling.ModelSpec.naive()])

    def test_matches_run_window_for_direct_models(self):
        roster = [rolling.ModelSpec.naive(), rolling.ModelSpec.ols("vrp")]
        records = rolling.run_day(day_rows(), roster)
        for record in records[::97]:
            direct = run_window(
                day_rows(), record.minute,
                roster[0] if record.model == "naive" else roster[1],
            )
            assert record == direct

    def test_lstm_batching_matches_single_window_runs(self):
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=4, epochs=8))
        records = rolling.run_day(day_rows(), [spec], master_seed=3)
        assert len(records) == 340
        assert all(r.status == "ok" for r in records)
        # batched training regroups GEMMs, so agreement is to rounding,
        # not bitwise
        for record in records[::48]:
            direct = run_window(day_rows(), record.minute, spec, master_seed=3)
            assert record.y_hat == pytest.approx(direct.y_hat, abs=1e-9)
            assert record.y_naive == direct.y_naive
            assert record.status == direct.status

    def test_lstm_diverged_batch_falls_back_per_window(self, monkeypatch):
        # a huge init overflows every batch, so each window is retried
        # alone, diverges again, and falls back to the window mean
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
            records = rolling.run_day(rows, [naive, spec])
        lstm_records = [r for r in records if r.model == "lstm"]
        assert len(lstm_records) == 30
        # one solo retrain per window, identified by its derived seed
        assert sorted(solo) == sorted(
            rolling.derive_seed(0, r.day, r.minute, spec.key) for r in lstm_records
        )
        assert all(r.status == "fallback" for r in lstm_records)
        assert all(r.y_hat == r.y_naive for r in lstm_records)
        monkeypatch.setattr(rolling, "lstm_train", lstm_train)
        assert [r for r in records if r.model == "naive"] == rolling.run_day(rows, [naive])

    def test_lstm_day_is_deterministic(self):
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=4, epochs=5))
        a = rolling.run_day(day_rows(), [spec], master_seed=9)
        b = rolling.run_day(day_rows(), [spec], master_seed=9)
        assert a == b

    def test_lstm_long_sequences_fall_back_on_short_warmups(self):
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=2, epochs=2,
                                                         sequence_length=25))
        records = rolling.run_day(day_rows(), [spec])
        by_minute = {r.minute: r for r in records}
        # windows with fewer than 26 rows cannot form a length-25 sequence
        for minute in range(41, 45):
            assert by_minute[minute].status == "fallback"
            assert by_minute[minute].y_hat == by_minute[minute].y_naive
        assert by_minute[60].status == "ok"

    def test_rf_day_subset(self):
        rows = minutes_between(day_rows(), 19, 120)
        spec = rolling.ModelSpec.rf("vix", ForestConfig(n_trees=3))
        records = rolling.run_day(rows, [spec], master_seed=4)
        assert len(records) == 120 - 41 + 1
        assert all(r.status == "ok" for r in records)
        assert records == rolling.run_day(rows, [spec], master_seed=4)


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
        keys = [r.sort_key for r in records]
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
        assert serial == parallel

    def test_zero_days(self):
        assert rolling.run_sample([], [rolling.ModelSpec.naive()]) == []

    def test_overflowing_test_row_falls_back(self):
        # VIX is zero up to minute 94 apart from one tiny bar at 80, then back
        # at its usual level: the window predicting minute 100 trains on a
        # vix_lag span of ~1.7e-311 and tests on ~0.03, whose scaled value is
        # not a finite float
        day = sample_days(1)[0]
        bars = [
            dataclasses.replace(
                b, vix_annual=1e-308 if b.minute == 80 else 0.0
            ) if b.minute <= 94 else b
            for b in day.bars
        ]
        day = md.DaySeries.from_bars(day.day, bars)
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
            assert ra.sort_key == rb.sort_key
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
        assert rolling.read_store(path) == records

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
        assert first[0] == records[0].day.isoformat()
        assert first[4] == repr(float(records[0].y_true))

    def test_writer_sorts_shuffled_input(self, tmp_path):
        records = self.records()
        shuffled = list(records)
        np.random.default_rng(0).shuffle(shuffled)
        path = tmp_path / "store.csv"
        rolling.write_store(shuffled, path)
        assert rolling.read_store(path) == records

    def test_nan_round_trip(self, tmp_path):
        record = rolling.PredictionRecord(
            day=DAY, minute=41, model="ols-ar1", predictor_set="ar1",
            y_true=0.5, y_hat=math.nan, y_naive=math.nan, status="skipped",
        )
        path = tmp_path / "store.csv"
        rolling.write_store([record], path)
        back = rolling.read_store(path)[0]
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
        rolling.write_store([], path)
        with open(path, "a") as handle:
            handle.write("2021-03-01,41,naive,none,0.1\n")
        with pytest.raises(ParseError):
            rolling.read_store(path)

    def test_read_rejects_bad_status_and_floats(self, tmp_path):
        path = tmp_path / "store.csv"
        rolling.write_store([], path)
        with open(path, "a") as handle:
            handle.write("2021-03-01,41,naive,none,0.1,0.1,0.1,great\n")
        with pytest.raises(ParseError):
            rolling.read_store(path)
        rolling.write_store([], path)
        with open(path, "a") as handle:
            handle.write("2021-03-01,41,naive,none,abc,0.1,0.1,ok\n")
        with pytest.raises(ParseError):
            rolling.read_store(path)

    def test_status_validation_on_record(self):
        with pytest.raises(ConfigError):
            rolling.PredictionRecord(
                day=DAY, minute=41, model="naive", predictor_set="none",
                y_true=0.0, y_hat=0.0, y_naive=0.0, status="maybe",
            )
