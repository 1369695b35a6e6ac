"""Tests for window scheduling, per-window estimation, and the store.

The estimation oracle re-runs one OLS window by hand: min/max scaling,
normal equations, inverse transform, all with plain Python arithmetic.
"""

import dataclasses
import datetime as dt
import math
from functools import lru_cache

import numpy as np
import pytest

from minutecast import marketdata as md
from minutecast import rolling
from minutecast.errors import ConfigError, DataError, ParseError, ShapeError
from minutecast.forest import ForestConfig
from minutecast.lstm import TrainConfig

DAY = dt.date(2021, 3, 1)


@lru_cache(maxsize=None)
def day_rows(seed: int = 3):
    series = md.generate_synthetic_day(md.SynthParams(n_days=1, seed=seed), DAY)
    return tuple(md.build_feature_rows(series))


def drop_minutes(rows, missing):
    return [r for r in rows if r.minute not in missing]


class TestScheduleDay:
    def test_gapless_day_yields_full_schedule(self):
        tasks = rolling.schedule_day(day_rows())
        assert len(tasks) == 340
        assert tasks[0].minute == 41   # 10:11
        assert tasks[-1].minute == 380  # 15:50
        assert [t.minute for t in tasks] == list(range(41, 381))

    def test_warmup_windows_truncate_at_first_feature_minute(self):
        tasks = rolling.schedule_day(day_rows())
        for task in tasks[:8]:
            assert task.train_rows[0].minute == 19
            assert task.n_train == task.minute - 19
        assert [t.n_train for t in tasks[:8]] == list(range(22, 30))
        for task in tasks[8:]:
            assert task.n_train == 30
            assert task.train_rows[0].minute == task.minute - 30

    def test_window_ends_the_minute_before_prediction(self):
        for task in rolling.schedule_day(day_rows())[::50]:
            assert task.train_rows[-1].minute == task.minute - 1
            assert task.test_row.minute == task.minute

    def test_empty_rows(self):
        assert rolling.schedule_day([]) == []

    def test_missing_midday_bar_drops_covered_tasks(self):
        rows = drop_minutes(day_rows(), {200})
        tasks = rolling.schedule_day(rows)
        # minute 200 as test row, plus the 30 windows that require it
        assert len(tasks) == 340 - 31
        minutes = {t.minute for t in tasks}
        assert 200 not in minutes
        assert minutes.isdisjoint(range(201, 231))
        assert 231 in minutes

    def test_missing_first_feature_row_drops_warmups(self):
        rows = drop_minutes(day_rows(), {19})
        tasks = rolling.schedule_day(rows)
        # the truncated windows and the first full window all need minute 19
        assert len(tasks) == 340 - 9
        assert tasks[0].minute == 50
        assert all(t.n_train == 30 for t in tasks)

    def test_short_isolated_run_yields_nothing(self):
        rows = [r for r in day_rows() if 100 <= r.minute <= 129]
        assert rolling.schedule_day(rows) == []

    def test_thirty_one_row_run_yields_one_task(self):
        rows = [r for r in day_rows() if 100 <= r.minute <= 130]
        tasks = rolling.schedule_day(rows)
        assert len(tasks) == 1
        assert tasks[0].minute == 130
        assert tasks[0].n_train == 30

    def test_rejects_unsorted_rows(self):
        rows = list(day_rows())
        rows[5], rows[6] = rows[6], rows[5]
        with pytest.raises(DataError):
            rolling.schedule_day(rows)

    def test_rejects_mixed_days(self):
        other = dataclasses.replace(day_rows()[40], day=DAY + dt.timedelta(days=1))
        with pytest.raises(DataError):
            rolling.schedule_day(list(day_rows()[:40]) + [other])


class TestWindowTask:
    def test_invariant_violations(self):
        rows = day_rows()
        by_minute = {r.minute: r for r in rows}
        train = tuple(by_minute[m] for m in range(70, 100))
        task = rolling.WindowTask(day=DAY, minute=100, train_rows=train, test_row=by_minute[100])
        assert task.n_train == 30
        with pytest.raises(ShapeError):
            rolling.WindowTask(day=DAY, minute=100, train_rows=train[:-1], test_row=by_minute[100])
        with pytest.raises(ShapeError):
            rolling.WindowTask(day=DAY, minute=100, train_rows=train[1:], test_row=by_minute[100])
        with pytest.raises(ShapeError):
            rolling.WindowTask(day=DAY, minute=101, train_rows=train, test_row=by_minute[101])
        with pytest.raises(ShapeError):
            rolling.WindowTask(day=DAY, minute=100, train_rows=(), test_row=by_minute[100])
        gapped = train[:10] + train[11:] + (by_minute[100],)
        with pytest.raises(ShapeError):
            rolling.WindowTask(day=DAY, minute=100, train_rows=gapped, test_row=by_minute[100])
        with pytest.raises(DataError):
            rolling.WindowTask(
                day=DAY + dt.timedelta(days=1), minute=100, train_rows=train,
                test_row=by_minute[100],
            )


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


def manual_ols_vix_forecast(task):
    """Hand pipeline: scale by train min/max, normal equations, map back."""
    xs = [r.vix_lag for r in task.train_rows]
    ys = [r.r5 for r in task.train_rows]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    xs_s = [(v - lo_x) / (hi_x - lo_x) for v in xs]
    ys_s = [(v - lo_y) / (hi_y - lo_y) for v in ys]
    A = np.column_stack([np.ones(len(xs_s)), xs_s])
    beta = np.linalg.solve(A.T @ A, A.T @ np.array(ys_s))
    x_test = (task.test_row.vix_lag - lo_x) / (hi_x - lo_x)
    yhat_s = beta[0] + beta[1] * x_test
    return yhat_s * (hi_y - lo_y) + lo_y


class TestRunWindow:
    def tasks(self):
        return rolling.schedule_day(day_rows())

    def test_naive_is_window_mean(self):
        task = self.tasks()[100]
        record = rolling.run_window(task, rolling.ModelSpec.naive())
        targets = np.array([r.r5 for r in task.train_rows])
        assert record.y_hat == targets.mean()
        assert record.y_naive == record.y_hat
        assert record.status == "ok"
        assert record.model == "naive"
        assert record.predictor_set == "none"
        assert record.y_true == task.test_row.r5

    def test_naive_coherence_across_schedule(self):
        for task in self.tasks()[::40]:
            record = rolling.run_window(task, rolling.ModelSpec.naive())
            mean = np.mean([r.r5 for r in task.train_rows])
            assert record.y_naive == pytest.approx(mean, abs=1e-12)

    def test_ols_recovers_exact_linear_target(self):
        rows = [dataclasses.replace(r, r5=2.0 * r.vix_lag) for r in day_rows()]
        task = rolling.schedule_day(rows)[50]
        record = rolling.run_window(task, rolling.ModelSpec.ols("vix"))
        assert record.status == "ok"
        assert record.y_hat == pytest.approx(record.y_true, abs=1e-8)

    def test_ols_matches_hand_pipeline(self):
        for task in (self.tasks()[0], self.tasks()[120], self.tasks()[339]):
            record = rolling.run_window(task, rolling.ModelSpec.ols("vix"))
            assert record.status == "ok"
            assert record.y_hat == pytest.approx(manual_ols_vix_forecast(task), abs=1e-10)

    def test_scaler_ignores_test_row(self):
        # an extreme test row must not shift the forecast: training statistics
        # fully determine the fit, the test row only gets mapped through it
        task = self.tasks()[60]
        record = rolling.run_window(task, rolling.ModelSpec.ols("vix"))
        wild = dataclasses.replace(task.test_row, vix_lag=task.test_row.vix_lag * 100)
        wild_task = rolling.WindowTask(
            day=task.day, minute=task.minute, train_rows=task.train_rows, test_row=wild
        )
        wild_record = rolling.run_window(wild_task, rolling.ModelSpec.ols("vix"))
        # same fitted line, evaluated at a different point: recompute by hand
        assert wild_record.y_hat == pytest.approx(manual_ols_vix_forecast(wild_task), abs=1e-10)
        assert wild_record.y_hat != record.y_hat

    def test_constant_predictor_falls_back(self):
        task = self.tasks()[30]
        flat_rows = tuple(dataclasses.replace(r, vix_lag=17.0) for r in task.train_rows)
        flat_task = rolling.WindowTask(
            day=task.day, minute=task.minute, train_rows=flat_rows,
            test_row=dataclasses.replace(task.test_row, vix_lag=17.0),
        )
        record = rolling.run_window(flat_task, rolling.ModelSpec.ols("vix"))
        assert record.status == "fallback"
        assert record.y_hat == record.y_naive

    def test_nan_predictor_skips(self):
        task = self.tasks()[30]
        rows = list(task.train_rows)
        rows[3] = dataclasses.replace(rows[3], lag_r5=math.nan)
        bad = rolling.WindowTask(
            day=task.day, minute=task.minute, train_rows=tuple(rows), test_row=task.test_row
        )
        record = rolling.run_window(bad, rolling.ModelSpec.ols("ar1"))
        assert record.status == "skipped"
        assert math.isnan(record.y_hat)
        assert math.isfinite(record.y_naive)

    def test_nan_target_skips_with_nan_naive(self):
        task = self.tasks()[30]
        rows = list(task.train_rows)
        rows[0] = dataclasses.replace(rows[0], r5=math.nan)
        bad = rolling.WindowTask(
            day=task.day, minute=task.minute, train_rows=tuple(rows), test_row=task.test_row
        )
        record = rolling.run_window(bad, rolling.ModelSpec.naive())
        assert record.status == "skipped"
        assert math.isnan(record.y_naive)

    def test_lstm_window_runs_and_is_deterministic(self):
        task = self.tasks()[9]
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=4, epochs=10))
        a = rolling.run_window(task, spec, master_seed=1)
        b = rolling.run_window(task, spec, master_seed=1)
        assert a == b
        assert a.status == "ok"
        assert math.isfinite(a.y_hat)
        c = rolling.run_window(task, spec, master_seed=2)
        assert c.y_hat != a.y_hat

    def test_rf_window_runs_and_is_deterministic(self):
        task = self.tasks()[9]
        spec = rolling.ModelSpec.rf("agg", ForestConfig(n_trees=5))
        a = rolling.run_window(task, spec, master_seed=1)
        assert a == rolling.run_window(task, spec, master_seed=1)
        assert a.status == "ok"
        targets = [r.r5 for r in task.train_rows]
        assert min(targets) <= a.y_hat <= max(targets)


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
        tasks = {t.minute: t for t in rolling.schedule_day(day_rows())}
        for record in records[::97]:
            direct = rolling.run_window(
                tasks[record.minute],
                roster[0] if record.model == "naive" else roster[1],
            )
            assert record == direct

    def test_lstm_batching_matches_single_window_runs(self):
        spec = rolling.ModelSpec.lstm("vix", TrainConfig(hidden_dim=4, epochs=8))
        records = rolling.run_day(day_rows(), [spec], master_seed=3)
        assert len(records) == 340
        assert all(r.status == "ok" for r in records)
        tasks = {t.minute: t for t in rolling.schedule_day(day_rows())}
        # batched training regroups GEMMs, so agreement is to rounding,
        # not bitwise
        for record in records[::48]:
            direct = rolling.run_window(tasks[record.minute], spec, master_seed=3)
            assert record.y_hat == pytest.approx(direct.y_hat, abs=1e-9)
            assert record.y_naive == direct.y_naive
            assert record.status == direct.status

    def test_lstm_diverged_batch_falls_back_per_window(self, monkeypatch):
        # a huge init overflows every batch, so each window is retried
        # alone, diverges again, and falls back to the window mean
        rows = [r for r in day_rows() if r.minute <= 70]
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
        rows = [r for r in day_rows() if r.minute <= 120]
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
